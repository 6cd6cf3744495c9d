package report

import (
	"strings"
	"testing"
)

func TestRenderDashboard(t *testing.T) {
	var b strings.Builder
	if err := RenderDashboard(&b, `race<hunt>`); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "race&lt;hunt&gt;") {
		t.Error("tool name not HTML-escaped")
	}
	for _, want := range []string{
		"/metrics.json", "/status", "/events", // data sources
		"EventSource",       // live stream wiring
		"p50", "p90", "p99", // phase latency columns
		"prefers-color-scheme: dark", // dark mode tokens
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard HTML missing %q", want)
		}
	}
}
