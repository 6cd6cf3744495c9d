// Command racedetect performs the paper's post-mortem analysis on trace
// files produced by wrsim: it builds the happens-before-1 graph, finds the
// data races, partitions them via the augmented graph, and reports the
// first partitions.
//
// Usage:
//
//	racedetect fig2.wrt
//	racedetect -graph -pairing liberal trace1.wrt trace2.wrt
//	racedetect -dot out.dot fig2set.d
//	racedetect -explain -html report.html -flight flight/ fig2.wrt
//
// Exit status: 0 if every trace is data-race-free, 1 if any trace has
// data races, 2 on errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/obs"
	"weakrace/internal/provenance"
	"weakrace/internal/report"
	"weakrace/internal/telemetry"
	"weakrace/internal/telemetry/export"
	"weakrace/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("racedetect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graph   = fs.Bool("graph", false, "also render the augmented happens-before-1 graph")
		dot     = fs.String("dot", "", "write the augmented graph in Graphviz DOT form to this file")
		pairing = fs.String("pairing", "conservative",
			"release pairing policy: conservative (the paper's) or liberal")
		metrics    = fs.String("metrics", "", "dump a JSON telemetry snapshot on exit to this file (- for stdout)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		explain    = fs.Bool("explain", false, "print per-race witness explanations (certificates, first-partition chains)")
		dotParts   = fs.String("dot-partitions", "", "write the partition condensation DAG in Graphviz DOT form to this file")
		htmlOut    = fs.String("html", "", "write a single-file HTML race report to this file\n(multiple inputs get numbered suffixes)")
		flight     = fs.String("flight", "", "write a flight-recorder directory: flight.jsonl, trace.json (Perfetto), witnesses.json")
		workers    = fs.Int("workers", 0, "worker goroutines for the hb1 graph build, the one analysis phase\nthat runs in parallel (0 = GOMAXPROCS); output is byte-identical\nfor every worker count")
		httpAddr   = fs.String("http", "", "serve the observability plane (metrics, status, dashboard, pprof) on this address while analyzing")

		wdP99X    = fs.Float64("watchdog-p99x", 0, "watchdog: fire when an analysis phase exceeds this multiple of its running p99 (0 = off)")
		wdAbs     = fs.Duration("watchdog-abs", 0, "watchdog: fire when any analysis phase exceeds this duration (0 = off)")
		artifacts = fs.String("artifacts", "", "watchdog capture directory: pprof snapshots per firing")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var obsSrv *obs.Server
	if *httpAddr != "" {
		srv, err := obs.Serve(*httpAddr, obs.Options{Tool: "racedetect"})
		if err != nil {
			fmt.Fprintf(stderr, "racedetect: %v\n", err)
			return 2
		}
		defer srv.Close()
		obsSrv = srv
		fmt.Fprintf(stderr, "racedetect: observability plane on http://%s/\n", srv.Addr())
	}
	if *wdP99X > 0 || *wdAbs > 0 {
		// The watchdog watches the analysis phases through the registry's
		// span hook, so collection stays on for the run.
		defer telemetry.EnableDefault()()
		var pub *obs.Publisher
		if obsSrv != nil {
			pub = obsSrv.Publisher()
		}
		wdog := obs.NewWatchdog(obs.WatchdogOptions{
			Publisher:   pub,
			Dir:         *artifacts,
			P99Multiple: *wdP99X,
			Absolute:    *wdAbs,
		})
		wdog.Start()
		defer wdog.Stop()
		if obsSrv != nil {
			obsSrv.AttachWatchdog(wdog)
		}
		fmt.Fprintf(stderr, "racedetect: watchdog armed (p99x=%g abs=%v artifacts=%q)\n",
			*wdP99X, *wdAbs, *artifacts)
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: racedetect [-graph] [-dot file] [-explain] [-html file] [-flight dir] [-pairing conservative|liberal] [-metrics file|-] trace.wrt ...")
		return 2
	}
	var policy memmodel.PairingPolicy
	switch *pairing {
	case "conservative":
		policy = memmodel.ConservativePairing
	case "liberal":
		policy = memmodel.LiberalPairing
	default:
		fmt.Fprintf(stderr, "racedetect: unknown pairing policy %q\n", *pairing)
		return 2
	}

	if *metrics != "" {
		defer telemetry.EnableDefault()()
		if *workers <= 0 {
			// The worker gauges in the snapshot reflect this resolution;
			// say it up front so a -workers 0 run is self-describing.
			fmt.Fprintf(stderr, "racedetect: -workers 0 resolved to GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))
		}
	}
	stopProfiles, err := telemetry.StartProfiles(*cpuprofile, *memprofile, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "racedetect: %v\n", err)
		return 2
	}
	defer stopProfiles()

	var fr *export.Recorder
	if *flight != "" {
		fr = export.NewRecorder()
	}
	// Witness sets per input, written into the flight directory so the
	// structural log and the explanations travel together.
	type inputWitnesses struct {
		Input     string                `json:"input"`
		Witnesses []*provenance.Witness `json:"witnesses"`
	}
	var witnessed []inputWitnesses

	anyRaces := false
	for i, path := range fs.Args() {
		tr, err := readTrace(path)
		if err != nil {
			fmt.Fprintf(stderr, "racedetect: %s: %v\n", path, err)
			return 2
		}
		a, err := core.Analyze(tr, core.Options{Pairing: policy, SkipValidate: true, Flight: fr, Workers: *workers})
		if err != nil {
			fmt.Fprintf(stderr, "racedetect: %s: %v\n", path, err)
			return 2
		}
		fmt.Fprintf(stdout, "== %s ==\n", path)
		if *graph {
			if err := report.RenderGraph(stdout, a); err != nil {
				fmt.Fprintf(stderr, "racedetect: %v\n", err)
				return 2
			}
		}
		if *dot != "" {
			f, err := os.Create(*dot)
			if err == nil {
				err = report.RenderDOT(f, a)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(stderr, "racedetect: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "DOT graph written to %s\n", *dot)
		}
		if err := report.RenderAnalysis(stdout, a); err != nil {
			fmt.Fprintf(stderr, "racedetect: %v\n", err)
			return 2
		}
		var ex *provenance.Explainer
		if *explain || *htmlOut != "" || *dotParts != "" || fr != nil {
			ex = provenance.NewExplainer(a)
		}
		if *dotParts != "" {
			f, err := os.Create(*dotParts)
			if err == nil {
				err = report.RenderPartitionDOT(f, ex)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(stderr, "racedetect: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "partition DOT written to %s\n", *dotParts)
		}
		if *explain {
			if err := report.RenderExplanations(stdout, ex); err != nil {
				fmt.Fprintf(stderr, "racedetect: %v\n", err)
				return 2
			}
		}
		if *htmlOut != "" {
			name := numberedName(*htmlOut, i, fs.NArg())
			f, err := os.Create(name)
			if err == nil {
				err = report.RenderHTML(f, ex)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(stderr, "racedetect: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "HTML report written to %s\n", name)
		}
		if fr != nil {
			ws, err := ex.All()
			if err != nil {
				fmt.Fprintf(stderr, "racedetect: %v\n", err)
				return 2
			}
			witnessed = append(witnessed, inputWitnesses{Input: path, Witnesses: ws})
		}
		if !a.RaceFree() {
			anyRaces = true
		}
	}
	if fr != nil {
		if err := fr.WriteDir(*flight); err != nil {
			fmt.Fprintf(stderr, "racedetect: %v\n", err)
			return 2
		}
		data, err := json.MarshalIndent(witnessed, "", " ")
		if err == nil {
			err = os.WriteFile(filepath.Join(*flight, "witnesses.json"), append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "racedetect: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "flight recording written to %s\n", *flight)
	}
	if *metrics != "" {
		if err := telemetry.DumpDefault(*metrics, stdout); err != nil {
			fmt.Fprintf(stderr, "racedetect: %v\n", err)
			return 2
		}
	}
	if anyRaces {
		return 1
	}
	return 0
}

// numberedName returns base unchanged for a single input and inserts a
// 1-based index before the extension otherwise, so several inputs each
// get their own HTML report.
func numberedName(base string, i, n int) string {
	if n == 1 {
		return base
	}
	ext := filepath.Ext(base)
	return fmt.Sprintf("%s.%d%s", strings.TrimSuffix(base, ext), i+1, ext)
}

// readTrace loads a trace from a path: a directory is a per-processor
// file set; a file is sniffed as binary ("WRT1" magic) or text.
func readTrace(path string) (*trace.Trace, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.IsDir() {
		return trace.ReadFileSet(path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(data, []byte("weakrace-trace")) {
		return trace.DecodeText(bytes.NewReader(data))
	}
	return trace.Decode(bytes.NewReader(data))
}
