// Command perfbench is the repository benchmark. It runs one named
// workload in process against the program's public entry points —
// harness.RunContext, a service.Server behind httptest reached through
// client.Client, and three cluster nodes reached through
// client.Gateway — checks the answers, and prints the metrics.
//
//	perfbench --workload serve-mixed --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end metrics of BENCHMARK.json; with --trace 1 the
// run is split into an untraced and a traced half and the metrics are
// the per-layer ones, read from the telemetry registry, a trace.Store
// collector and the benchmark's own timers. The line before it is the
// full run record (host, seed, every sample); benchdiff compares files
// of such records. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks every input so a whole workload runs in a few
	// seconds; its numbers are not comparable with a full run.
	smoke bool
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted, failed int
	// metrics holds the end-to-end metrics (untraced phase); layers
	// the per-layer metrics (traced phase, --trace 1 only).
	metrics map[string]float64
	layers  map[string]float64
	// samples keeps every value a reported metric was derived from
	// that is worth comparing run to run (set-ups, passes, quarters).
	samples map[string][]float64
	info    map[string]any
	// problems lists the first correctness failures, for the record.
	problems []string
}

func newOutcome() *outcome {
	return &outcome{
		metrics: make(map[string]float64),
		samples: make(map[string][]float64),
		info:    make(map[string]any),
	}
}

// fail counts one failed or mismatched operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(context.Context, options) (*outcome, error){
	"repro-pipeline":  runPipeline,
	"serve-mixed":     runServeMixed,
	"cluster-gateway": runClusterGateway,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	out, err := workloads[o.workload](ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := report(stdout, o, out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	trace := fs.Int("trace", 0, "1 runs the traced layer-by-layer run and prints per-layer metrics")
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs, for testing the benchmark itself")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if o.seconds <= 0 || math.IsInf(o.seconds, 0) || math.IsNaN(o.seconds) {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	o.trace = *trace == 1
	return o, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full account of one run, printed on the line before
// the result; benchdiff reads files of these.
type record struct {
	Benchmark string               `json:"benchmark"`
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Smoke     bool                 `json:"smoke,omitempty"`
	Host      Host                 `json:"host"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]float64   `json:"metrics"`
	Layers    map[string]float64   `json:"layers,omitempty"`
	Samples   map[string][]float64 `json:"samples"`
	Info      map[string]any       `json:"info"`
	Problems  []string             `json:"problems,omitempty"`
}

const recordSchema = "perfbench/v1"

func report(w io.Writer, o options, out *outcome) error {
	rec := record{
		Benchmark: recordSchema,
		Workload:  o.workload,
		Seed:      o.seed,
		Seconds:   o.seconds,
		Trace:     o.trace,
		Smoke:     o.smoke,
		Host:      currentHost(),
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   finite(out.metrics),
		Layers:    finite(out.layers),
		Samples:   out.samples,
		Info:      out.info,
		Problems:  out.problems,
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue),
	}
	defs, vals := endToEnd, out.metrics
	if o.trace {
		defs, vals = perLayer, out.layers
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured", o.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	return enc.Encode(res)
}

// finite drops NaN and infinite values, which JSON cannot carry.
func finite(m map[string]float64) map[string]float64 {
	if m == nil {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}
