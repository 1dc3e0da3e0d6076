package main

import (
	"context"
	"runtime/metrics"
	"time"
)

// metricDef names one reported metric and its unit. endToEnd and
// perLayer are the two lists BENCHMARK.json declares; a test keeps
// them in step.
type metricDef struct{ name, unit string }

// endToEnd metrics are reported by every workload, untraced. An "op"
// is the workload's unit of work: one suite spec carried through
// harness.RunContext on repro-pipeline, one HTTP request of the
// stationary mix on serve-mixed and cluster-gateway.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// flowNames and passNames name the opt layer's instruments: the
// "flow/<name>" and "opt/<name>" spans.
var (
	flowNames    = []string{"orchestrate", "dc2", "deepsyn"}
	passNames    = []string{"rewrite", "refactor", "resub", "balance"}
	profileParts = []string{"overlap", "optscores", "spectrum", "wl", "netsimile", "sketch"}
	// opClasses are the request classes of the service workloads, in
	// opKind order.
	opClasses = []string{"warm_metrics", "cold_metrics", "neighbors", "hop_metrics", "submit"}
)

// perLayer metrics come from the traced half of a --trace 1 run. Every
// workload reports every one; a layer that does no work on a workload
// reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"harness.spec_s.p50", "s"},
		{"harness.spec_s.max", "s"},
		{"harness.pairs", "count"},
		{"harness.accounted_share", "ratio"},
		{"synth.s", "s"},
	}
	for _, f := range flowNames {
		defs = append(defs, metricDef{"opt.flow." + f + ".s", "s"}, metricDef{"opt.flow." + f + ".ands_out", "count"})
	}
	for _, p := range passNames {
		defs = append(defs, metricDef{"opt.pass." + p + ".s", "s"}, metricDef{"opt.pass." + p + ".calls", "count"})
	}
	defs = append(defs, metricDef{"simil.profile.s", "s"})
	for _, p := range profileParts {
		defs = append(defs, metricDef{"simil.profile." + p + ".s", "s"})
	}
	defs = append(defs,
		metricDef{"simil.metric.s", "s"},
		metricDef{"sketch.evals_per_query", "ratio"},
		metricDef{"sketch.index_inserts", "count"},
		metricDef{"service.metrics.server_ms.p50", "ms"},
		metricDef{"service.neighbors.server_ms.p50", "ms"},
		metricDef{"service.aigs.server_ms.p50", "ms"},
		metricDef{"service.cache_hit_ratio", "ratio"},
		metricDef{"service.profile_builds", "count"},
		metricDef{"service.singleflight_shared", "count"},
		metricDef{"service.shed", "count"},
		metricDef{"client.latency_ms.p50", "ms"},
		metricDef{"client.handler_ms.p50", "ms"},
		metricDef{"client.overhead_ms.p50", "ms"},
		metricDef{"client.retries", "count"},
		metricDef{"client.gateway_failovers", "count"},
		metricDef{"cluster.fill.count", "count"},
		metricDef{"cluster.fill_ms.p50", "ms"},
		metricDef{"cluster.replicate.count", "count"},
		metricDef{"cluster.route_cache_hits", "count"},
		metricDef{"cluster.nonowner_share", "ratio"},
		metricDef{"telemetry.overhead", "ratio"},
		metricDef{"go.alloc_mb", "MB"},
		metricDef{"go.mallocs", "count"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"pipeline_s", "s"},
	)
	for _, c := range opClasses {
		defs = append(defs, metricDef{c + "_p50_ms", "ms"}, metricDef{c + "_p90_ms", "ms"})
	}
	return append(defs, metricDef{"failed_share", "ratio"})
}

// zeroLayers returns every per-layer metric set to 0; workloads fill
// in the layers they exercise.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// --- Go runtime ----------------------------------------------------------

var runtimeSamples = []string{
	"/gc/heap/goal:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

// goStats is a point-in-time read of the runtime counters the go.*
// layer reports.
type goStats struct{ heapGoal, allocBytes, allocObjects, gcCycles float64 }

func readGoStats() goStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return float64(s[i].Value.Uint64())
	}
	return goStats{heapGoal: v(0), allocBytes: v(1), allocObjects: v(2), gcCycles: v(3)}
}

// goLayer fills the go.* metrics with the runtime activity between two
// reads.
func goLayer(layers map[string]float64, before, after goStats) {
	layers["go.alloc_mb"] = (after.allocBytes - before.allocBytes) / (1 << 20)
	layers["go.mallocs"] = after.allocObjects - before.allocObjects
	layers["go.gc_cycles"] = after.gcCycles - before.gcCycles
}

// heapPeak runs phase while sampling the heap goal every 10ms and
// returns the largest goal seen, in MiB: the heap size the collector
// let the program grow to, which peak_heap_mb reports. Sampling stops
// with phase or with ctx.
func heapPeak(ctx context.Context, phase func()) float64 {
	peak := readGoStats().heapGoal
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		p := 0.0
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- p
				return
			case <-ctx.Done():
				<-stop
				done <- p
				return
			case <-t.C:
				p = max(p, readGoStats().heapGoal)
			}
		}
	}()
	phase()
	close(stop)
	peak = max(peak, <-done, readGoStats().heapGoal)
	return peak / (1 << 20)
}
