package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry"
	"weakrace/internal/telemetry/export"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// writeTraces materializes one racy and one clean trace in dir and returns
// their paths, plus a text-format copy and a file-set directory.
func writeTraces(t *testing.T, dir string) (racy, clean, text, fileset string) {
	t.Helper()
	mk := func(w *workload.Workload) *trace.Trace {
		r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: 1, InitMemory: w.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		return trace.FromExecution(r.Exec)
	}
	racyTr := mk(workload.Figure1a())
	cleanTr := mk(workload.Figure1b())

	racy = filepath.Join(dir, "racy.wrt")
	if err := trace.WriteFile(racy, racyTr); err != nil {
		t.Fatal(err)
	}
	clean = filepath.Join(dir, "clean.wrt")
	if err := trace.WriteFile(clean, cleanTr); err != nil {
		t.Fatal(err)
	}
	text = filepath.Join(dir, "racy.wrtx")
	f, err := os.Create(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeText(f, racyTr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fileset = filepath.Join(dir, "clean.d")
	if err := trace.WriteFileSet(fileset, cleanTr); err != nil {
		t.Fatal(err)
	}
	return racy, clean, text, fileset
}

func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	racy, clean, text, fileset := writeTraces(t, dir)

	cases := []struct {
		name string
		args []string
		exit int
		want string
	}{
		{"racy binary", []string{racy}, 1, "FIRST"},
		{"clean binary", []string{clean}, 0, "NO DATA RACES"},
		{"text format", []string{text}, 1, "FIRST"},
		{"file set", []string{fileset}, 0, "NO DATA RACES"},
		{"mixed", []string{clean, racy}, 1, "FIRST"},
		{"graph flag", []string{"-graph", racy}, 1, "race↔"},
		{"liberal pairing", []string{"-pairing", "liberal", clean}, 0, "NO DATA RACES"},
		{"no args", nil, 2, ""},
		{"bad pairing", []string{"-pairing", "nope", racy}, 2, ""},
		{"missing file", []string{filepath.Join(dir, "absent.wrt")}, 2, ""},
		{"bad flag", []string{"-bogus"}, 2, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if got := run(c.args, &out, &errb); got != c.exit {
				t.Fatalf("exit = %d, want %d (stderr: %s)", got, c.exit, errb.String())
			}
			if c.want != "" && !strings.Contains(out.String(), c.want) {
				t.Fatalf("output missing %q:\n%s", c.want, out.String())
			}
		})
	}
}

func TestRunDOTOutput(t *testing.T) {
	dir := t.TempDir()
	racy, _, _, _ := writeTraces(t, dir)
	dotPath := filepath.Join(dir, "g.dot")
	var out, errb bytes.Buffer
	if got := run([]string{"-dot", dotPath, racy}, &out, &errb); got != 1 {
		t.Fatalf("exit = %d (stderr: %s)", got, errb.String())
	}
	data, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph hb1") {
		t.Fatalf("DOT file wrong:\n%s", data)
	}
}

// TestRunMetrics: -metrics - appends a JSON telemetry snapshot to stdout
// with detector and codec counters for the analyzed traces.
func TestRunMetrics(t *testing.T) {
	dir := t.TempDir()
	racy, clean, _, _ := writeTraces(t, dir)
	var out, errb bytes.Buffer
	if got := run([]string{"-metrics", "-", clean, racy}, &out, &errb); got != 1 {
		t.Fatalf("exit = %d (stderr: %s)", got, errb.String())
	}
	jsonStart := strings.Index(out.String(), "\n{")
	if jsonStart < 0 {
		t.Fatalf("no JSON snapshot on stdout:\n%s", out.String())
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(out.String()[jsonStart:]), &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	if snap.Counters["detect.analyses"] != 2 {
		t.Errorf("detect.analyses = %d, want 2", snap.Counters["detect.analyses"])
	}
	for _, name := range []string{"detect.events", "detect.races", "trace.decode.calls", "trace.decode.bytes", "detect.vc_builds", "graph.vc.builds"} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %q = %d, want > 0", name, snap.Counters[name])
		}
	}
	if snap.Phases["detect.analyze"].Count != 2 {
		t.Errorf("detect.analyze phase count = %d, want 2", snap.Phases["detect.analyze"].Count)
	}

	// Profiling hooks produce files here too (racedetect is the second
	// heavy CLI).
	cpu := filepath.Join(dir, "cpu.pprof")
	out.Reset()
	errb.Reset()
	if got := run([]string{"-cpuprofile", cpu, clean}, &out, &errb); got != 0 {
		t.Fatalf("exit = %d (stderr: %s)", got, errb.String())
	}
	if info, err := os.Stat(cpu); err != nil || info.Size() == 0 {
		t.Fatalf("cpu profile missing or empty: %v", err)
	}
}

func TestRunCorruptTrace(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.wrt")
	if err := os.WriteFile(bad, []byte("WRT1 garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if got := run([]string{bad}, &out, &errb); got != 2 {
		t.Fatalf("exit = %d, want 2", got)
	}
	if !strings.Contains(errb.String(), "racedetect:") {
		t.Fatalf("stderr missing error: %s", errb.String())
	}
}

// TestRunClockCellCap: a trace past core.MaxClockCells — 65,536 CPUs of
// one event each — is an analysis error: reported, exit 2.
func TestRunClockCellCap(t *testing.T) {
	const cpus = 1 << 16
	b := trace.NewBuilder(trace.Header{ProgramName: "wide", NumCPUs: cpus, NumLocations: 1})
	for c := range cpus {
		b.Comp(c, []trace.LocPC{{Loc: 0}}, nil)
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wide.wrt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if got := run([]string{path}, &out, &errb); got != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %s)", got, errb.String())
	}
	if !strings.Contains(errb.String(), "clock cells, over the cap") {
		t.Fatalf("stderr does not report the cap: %s", errb.String())
	}
}

// TestRunProvenanceFlags: -explain prints witnesses, -html, -dot and
// -dot-partitions write one file per input (numbered when there are
// several), and -flight writes a parseable flight directory with a
// witnesses.json entry per input.
func TestRunProvenanceFlags(t *testing.T) {
	dir := t.TempDir()
	racy, clean, _, _ := writeTraces(t, dir)
	htmlPath := filepath.Join(dir, "report.html")
	dotPath := filepath.Join(dir, "g.dot")
	partsPath := filepath.Join(dir, "parts.dot")
	flightDir := filepath.Join(dir, "flight")
	var out, errb bytes.Buffer
	got := run([]string{"-explain", "-html", htmlPath, "-dot", dotPath, "-dot-partitions", partsPath,
		"-flight", flightDir, racy, clean}, &out, &errb)
	if got != 1 {
		t.Fatalf("exit = %d (stderr: %s)", got, errb.String())
	}
	for _, want := range []string{"witnesses for", "certificate:", "FIRST (Theorem 4.2"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("stdout missing %q:\n%s", want, out.String())
		}
	}
	// Two inputs: numbered HTML reports, racy first.
	for i, want := range []string{"DATA RACES DETECTED", "NO DATA RACES"} {
		data, err := os.ReadFile(filepath.Join(dir, "report."+string(rune('1'+i))+".html"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), want) {
			t.Fatalf("HTML %d missing %q", i+1, want)
		}
	}
	// Numbered DOT files too: each input's graph survives, and stdout
	// names each file once.
	for _, base := range []string{"g", "parts"} {
		var files [2]string
		for i := range files {
			name := filepath.Join(dir, base+"."+string(rune('1'+i))+".dot")
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(data), "digraph") {
				t.Fatalf("%s is not a DOT graph:\n%s", name, data)
			}
			if strings.Count(out.String(), "written to "+name+"\n") != 1 {
				t.Fatalf("stdout does not name %s once:\n%s", name, out.String())
			}
			files[i] = string(data)
		}
		if files[0] == files[1] {
			t.Fatalf("%s.1.dot and %s.2.dot are identical; the inputs differ", base, base)
		}
	}
	for _, name := range []string{dotPath, partsPath} {
		if _, err := os.Stat(name); !os.IsNotExist(err) {
			t.Fatalf("unnumbered %s written with two inputs (stat err %v)", name, err)
		}
	}
	// Flight directory: a parseable JSONL log covering both analyses, a
	// Chrome trace, and per-input witness sets.
	f, err := os.Open(filepath.Join(flightDir, export.FlightLogName))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := export.ReadJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	metas := 0
	for _, rec := range recs {
		if rec.Kind == export.KindMeta {
			metas++
		}
	}
	if metas != 2 {
		t.Fatalf("flight log has %d meta records for 2 inputs", metas)
	}
	var traceTop struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	data, err := os.ReadFile(filepath.Join(flightDir, export.ChromeTraceName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &traceTop); err != nil || len(traceTop.TraceEvents) == 0 {
		t.Fatalf("chrome trace unusable: %v", err)
	}
	var witnessed []struct {
		Input     string            `json:"input"`
		Witnesses []json.RawMessage `json:"witnesses"`
	}
	data, err = os.ReadFile(filepath.Join(flightDir, "witnesses.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &witnessed); err != nil {
		t.Fatal(err)
	}
	if len(witnessed) != 2 || witnessed[0].Input != racy || len(witnessed[0].Witnesses) == 0 || len(witnessed[1].Witnesses) != 0 {
		t.Fatalf("witnesses.json wrong: %+v", witnessed)
	}
}

// TestRunHTTPPlane: -http serves the plane for the analysis's duration
// and a bad address is a usage error.
func TestRunHTTPPlane(t *testing.T) {
	defer func() {
		telemetry.Default().SetEnabled(false)
		telemetry.Default().Reset()
	}()
	racy, _, _, _ := writeTraces(t, t.TempDir())
	var out, errb bytes.Buffer
	if got := run([]string{"-http", "127.0.0.1:0", racy}, &out, &errb); got != 1 {
		t.Fatalf("exit = %d, want 1 (racy trace); stderr: %s", got, errb.String())
	}
	if !strings.Contains(errb.String(), "observability plane on http://127.0.0.1:") {
		t.Fatalf("no plane address announced:\n%s", errb.String())
	}
	if got := run([]string{"-http", "not-an-address", racy}, &out, &errb); got != 2 {
		t.Fatalf("bad -http addr: exit = %d, want 2", got)
	}
}
