package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// pipelineSizes fixes the suite slice of repro-pipeline.
type pipelineSizes struct {
	maxInputs, maxSpecs int
	recipes             []string
}

func pipelineSizesFor(o options) pipelineSizes {
	if o.smoke {
		return pipelineSizes{maxInputs: 4, maxSpecs: 2, recipes: []string{"sop", "bdd", "anf"}}
	}
	return pipelineSizes{maxInputs: 4, maxSpecs: 40}
}

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 3

// passSeed derives the harness seed of timed pass i. Pass 0 runs the
// workload seed itself, so its results are those of
// `cmd/repro -seed <seed>` on the same slice; later passes draw fresh
// random specs, so a run's median pass is not hostage to one draw.
func passSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return seed ^ int64(splitmix(uint64(i))&0x7FFFFFFFFFFFFFFF)
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// specClock receives harness progress lines and timestamps each one:
// the interval since the previous line is that spec's wall time.
type specClock struct {
	mu    sync.Mutex
	last  time.Time
	start time.Time
	specs []float64 // seconds per spec
	ends  []float64 // seconds since start at each spec's end
}

func newSpecClock(phaseStart time.Time) *specClock {
	now := time.Now()
	return &specClock{last: now, start: phaseStart}
}

func (c *specClock) Write(p []byte) (int, error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for range bytes.Count(p, []byte("\n")) {
		c.specs = append(c.specs, now.Sub(c.last).Seconds())
		c.ends = append(c.ends, now.Sub(c.start).Seconds())
		c.last = now
	}
	return len(p), nil
}

// pipelinePass is one harness.RunContext over the slice.
type pipelinePass struct {
	seconds  float64
	specs    []float64
	ends     []float64
	variants int
	failures []harness.Failure
	pairs    int
	digest   string
	andsOut  map[string]float64
}

func runPass(ctx context.Context, sz pipelineSizes, seed int64, phaseStart time.Time) (pipelinePass, error) {
	clock := newSpecClock(phaseStart)
	t := time.Now()
	res, err := harness.RunContext(ctx, harness.Config{
		Seed: seed, MaxInputs: sz.maxInputs, MaxSpecs: sz.maxSpecs,
		Recipes: sz.recipes, Progress: clock,
	})
	p := pipelinePass{seconds: time.Since(t).Seconds()}
	if err != nil {
		return p, err
	}
	if res.Interrupted {
		return p, fmt.Errorf("pass interrupted: %w", ctx.Err())
	}
	p.specs, p.ends = clock.specs, clock.ends
	p.failures = res.Failures
	p.pairs = len(res.Pairs)
	p.variants = len(res.Failures)
	p.andsOut = make(map[string]float64)
	for _, s := range res.Specs {
		p.variants += len(s.Variants)
		for _, v := range s.Variants {
			for _, f := range flowNames {
				p.andsOut[f] += float64(v.FlowGates[f])
			}
		}
	}
	var csv bytes.Buffer
	if err := harness.WriteCSV(&csv, res); err != nil {
		return p, fmt.Errorf("writing pair CSV: %w", err)
	}
	sum := sha256.Sum256(csv.Bytes())
	p.digest = hex.EncodeToString(sum[:8])
	return p, nil
}

// pipelinePhase runs passes 0, 1, … until the phase budget is spent
// (or exactly `passes` passes when passes > 0).
func pipelinePhase(ctx context.Context, o options, sz pipelineSizes, budget float64, passes int) ([]pipelinePass, float64, error) {
	var out []pipelinePass
	var err error
	peak := heapPeak(ctx, func() {
		start := time.Now()
		var durs []float64
		for i := 0; passes == 0 || i < passes; i++ {
			// Start another pass only if it is expected to end near the
			// budget, so a run lasts about --seconds.
			if passes == 0 && i > 0 && time.Since(start).Seconds()+median(durs) > budget*1.15 {
				return
			}
			var p pipelinePass
			if p, err = runPass(ctx, sz, passSeed(o.seed, i), start); err != nil {
				return
			}
			out = append(out, p)
			durs = append(durs, p.seconds)
		}
	})
	return out, peak, err
}

func runPipeline(ctx context.Context, o options) (*outcome, error) {
	sz := pipelineSizesFor(o)
	out := newOutcome()

	// Set-up: generate the suite slice and run one warm-up pass over it
	// with a seed no timed pass uses. The warm-up fills the process-wide
	// structure libraries the rewrite and refactor passes memoize into,
	// which otherwise make the first timed pass of a process up to half
	// again slower than the next.
	var setups []float64
	for range setupReps {
		t := time.Now()
		specs := workload.FilterByInputs(workload.Suite(o.seed), sz.maxInputs)
		if len(specs) > sz.maxSpecs {
			specs = specs[:sz.maxSpecs]
		}
		cats := make(map[string]int)
		for _, s := range specs {
			cats[s.Category]++
		}
		out.info["categories"] = cats
		if _, err := harness.RunContext(ctx, harness.Config{Seed: passSeed(o.seed, -1), MaxInputs: sz.maxInputs, MaxSpecs: sz.maxSpecs, Recipes: sz.recipes}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	out.metrics["setup_s"] = median(setups)
	out.samples["setup_s"] = setups

	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	passes, peak, err := pipelinePhase(ctx, o, sz, budget, 0)
	if err != nil {
		return nil, err
	}
	summarizePipeline(out.metrics, passes)
	for _, p := range passes {
		out.attempted += p.variants
		for _, f := range p.failures {
			out.fail("quarantined variant: %s", f.String())
		}
	}
	out.samples["pipeline_s"] = passSeconds(passes)
	out.samples["ops_per_s.quarters"] = quarterRates(passEnds(passes), totalSeconds(passes))
	out.metrics["peak_heap_mb"] = peak
	out.samples["peak_heap_mb"] = []float64{peak}
	out.info["digest"] = passes[0].digest
	out.info["passes"] = len(passes)
	for _, f := range flowNames {
		out.info["ands_out."+f] = passes[0].andsOut[f]
	}

	if o.trace {
		reg, stopTrace := startTracing()
		before := readGoStats()
		traced, _, err := pipelinePhase(ctx, o, sz, 0, len(passes))
		after := readGoStats()
		stopTrace()
		if err != nil {
			return nil, err
		}
		layers := zeroLayers()
		summarizePipeline(layers, traced)
		pipelineLayers(layers, reg, traced)
		goLayer(layers, before, after)
		layers["telemetry.overhead"] = totalSeconds(traced) / totalSeconds(passes)
		out.layers = layers
		if traced[0].digest != passes[0].digest {
			out.fail("traced pass 0 digest %s differs from untraced %s", traced[0].digest, passes[0].digest)
		}
	}
	return out, nil
}

// summarizePipeline fills the end-to-end view of a set of passes
// into m. Every figure is a median over passes, so a burst of machine
// noise during one pass moves it little.
func summarizePipeline(m map[string]float64, passes []pipelinePass) {
	var rate, p50, p90 []float64
	variants, failed := 0, 0
	for _, p := range passes {
		rate = append(rate, float64(len(p.specs))/p.seconds)
		p50 = append(p50, percentile(p.specs, 50)*1000)
		p90 = append(p90, percentile(p.specs, 90)*1000)
		variants += p.variants
		failed += len(p.failures)
	}
	m["pipeline_s"] = median(passSeconds(passes))
	m["ops_per_s"] = median(rate)
	m["op_p50_ms"] = median(p50)
	m["op_p90_ms"] = median(p90)
	m["failed_share"] = float64(failed) / float64(max(variants, 1))
}

func passSeconds(passes []pipelinePass) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = p.seconds
	}
	return out
}

func passEnds(passes []pipelinePass) []float64 {
	var out []float64
	for _, p := range passes {
		out = append(out, p.ends...)
	}
	return out
}

func totalSeconds(passes []pipelinePass) float64 {
	t := 0.0
	for _, p := range passes {
		t += p.seconds
	}
	return t
}

// quarterRates splits completion times over [0, total) into four equal
// quarters and returns the completion rate in each, so drift across a
// phase shows.
func quarterRates(ends []float64, total float64) []float64 {
	var n [4]float64
	for _, e := range ends {
		q := int(4 * e / total)
		n[min(max(q, 0), 3)]++
	}
	out := make([]float64, 4)
	for i := range n {
		out[i] = n[i] / (total / 4)
	}
	return out
}

// pipelineLayers reads the synth, opt, simil and harness layers from
// the registry, as seconds (or counts) per pass.
func pipelineLayers(layers map[string]float64, reg *telemetry.Registry, passes []pipelinePass) {
	n := float64(len(passes))
	spanSum := func(name string) float64 { return reg.SpanStats(name).Sum / n }
	prefixSum := func(prefix string) float64 {
		_, s := reg.SpanSeconds(prefix)
		return s / n
	}

	var specs []float64
	for _, p := range passes {
		specs = append(specs, p.specs...)
	}
	layers["harness.spec_s.p50"] = median(specs)
	layers["harness.spec_s.max"] = maxOf(specs)
	layers["harness.pairs"] = float64(passes[0].pairs)
	layers["synth.s"] = prefixSum("synth/")
	accounted := layers["synth.s"]
	for _, f := range flowNames {
		layers["opt.flow."+f+".s"] = spanSum("flow/" + f)
		layers["opt.flow."+f+".ands_out"] = passes[0].andsOut[f]
		accounted += layers["opt.flow."+f+".s"]
	}
	passLayers(layers, reg, n)
	profileLayers(layers, reg, n)
	accounted += layers["simil.profile.s"] + layers["simil.metric.s"]
	layers["harness.accounted_share"] = accounted / (totalSeconds(passes) / n)
}

// passLayers reads the opt passes: seconds and calls per unit of div.
func passLayers(layers map[string]float64, reg *telemetry.Registry, div float64) {
	for _, p := range passNames {
		st := reg.SpanStats("opt/" + p)
		layers["opt.pass."+p+".s"] = st.Sum / div
		layers["opt.pass."+p+".calls"] = float64(st.Count) / div
	}
}

// profileLayers reads the simil layer: profile construction by
// artifact family and metric evaluation, in seconds per unit of div.
// simil.profile.s sums the families, because the daemon builds part of
// each profile through Extend, which the "profile/total" span does not
// cover.
func profileLayers(layers map[string]float64, reg *telemetry.Registry, div float64) {
	layers["simil.profile.s"] = 0
	for _, p := range profileParts {
		layers["simil.profile."+p+".s"] = reg.SpanStats("profile/"+p).Sum / div
		layers["simil.profile.s"] += layers["simil.profile."+p+".s"]
	}
	_, metricSecs := reg.SpanSeconds("metric/")
	layers["simil.metric.s"] = metricSecs / div
}
