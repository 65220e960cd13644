// Command servebench is the repository's serving benchmark. It builds the
// real internal/server handler stack in process (JSON, tenant admission,
// aligncache, alignsvc on the default striped backend, corpus search),
// serves it on a loopback listener, drives it with at most GOMAXPROCS
// client goroutines and connections, and checks every answer against an
// oracle.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash servebench/run.sh --workload align-bulk --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics. --trace 1 runs the workload untraced and then traced (spans kept
// in memory), replays every layer on the workload's own inputs, and
// reports the per-layer metrics. The host record, the replay ladder and
// the span file are written under --out. layers.json says which
// end-to-end metric each per-layer metric should move, and on which
// workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// processStart anchors the first set-up measurement at process start.
var processStart = time.Now()

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
	// corrupt, when set, is called on the target after set-up; the checker
	// test uses it to falsify one oracle entry.
	corrupt func(target)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run parses args, runs one benchmark invocation and returns the exit code.
func run(args []string, stdout, stderr io.Writer, corrupt func(target)) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "servebench"), "directory for the run record, spans and scratch corpora")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "servebench: bad arguments")
		fs.Usage()
		return 2
	}
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(stderr, "servebench: unknown workload %q (have %s)\n", o.workload, workloadNames())
		return 2
	}
	o.trace = trace == 1
	o.corrupt = corrupt
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	res, rec, err := execute(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "servebench: metric %s is not finite\n", name)
			return 1
		}
	}
	rec.Result = res
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace)
	if err := writeJSONFile(filepath.Join(o.out, name), rec); err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the run record written under --out.
type record struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  int         `json:"seconds"`
	Trace    bool        `json:"trace"`
	Host     hostInfo    `json:"host"`
	SetupS   []float64   `json:"setup_s"`
	Phases   []phaseInfo `json:"phases"`
	Ladder   []rungStat  `json:"ladder,omitempty"`
	Spans    []spanStat  `json:"spans,omitempty"`
	Result   result      `json:"result"`
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write run record: %w", err)
	}
	return nil
}
