package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/simil"
)

// serveSizes fixes the inputs of serve-mixed.
type serveSizes struct {
	corpusInputs, corpusSpecs int
	primed                    int // primed pairs, warm traffic draws from them
	neighborTargets           int // corpus graphs neighbors queries ask about
	coldInputs                int // input count of the fresh AIGs cold ops submit
	warmChecks                int // warm answers checked against in-process scores
}

func serveSizesFor(o options) serveSizes {
	if o.smoke {
		return serveSizes{corpusInputs: 4, corpusSpecs: 4, primed: 40, neighborTargets: 8, coldInputs: 4, warmChecks: 8}
	}
	return serveSizes{corpusInputs: 6, corpusSpecs: 65, primed: 2000, neighborTargets: 64, coldInputs: 5, warmChecks: 64}
}

// serveMix is the stationary request mix of serve-mixed, per block of
// 40 ops: 10% cold, 75% warm, 15% neighbors.
var serveMix = []mixEntry{{opCold, 4}, {opWarm, 30}, {opNeighbors, 6}}

// serveRefRate is serve-mixed's reference rate in ops per second (see
// phaseOps).
const serveRefRate = 1500

const neighborsK = 10

// serveEnv is one booted daemon with its corpus submitted and primed.
type serveEnv struct {
	svc       *service.Server
	ts        *httptest.Server
	cli       *client.Client
	closeIdle func()
	corpus    []string    // corpus fingerprints
	pairs     [][2]string // primed pairs
	targets   []string    // neighbors query fingerprints
	cold      [][]byte    // fresh payloads, consumed once each
	ref       *reference
}

func (e *serveEnv) close() {
	e.closeIdle()
	e.ts.Close()
	e.svc.Close()
}

// parallel runs fn(0..n-1) on `workers` goroutines and returns the
// first error; it stops handing out work once ctx is done.
func parallel(ctx context.Context, n, workers int, fn func(i int) error) error {
	var next atomic.Int64
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if first == nil {
		first = ctx.Err()
	}
	return first
}

// submitAll submits the distinct corpus through submit, checks that
// the daemon fingerprints each payload as the benchmark does, and
// registers the payloads with ref.
func submitAll(ctx context.Context, corpus *distinct, ref *reference, submit func(i int) (service.AIGView, error)) error {
	err := parallel(ctx, len(corpus.payloads), clientCount(), func(i int) error {
		v, err := submit(i)
		if err != nil {
			return fmt.Errorf("submitting corpus graph %d: %w", i, err)
		}
		if v.Fingerprint != corpus.fps[i] {
			return fmt.Errorf("corpus graph %d: daemon fingerprint %.12s, in-process %.12s", i, v.Fingerprint, corpus.fps[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, p := range corpus.payloads {
		if _, _, err := ref.add(p); err != nil {
			return err
		}
	}
	return nil
}

// matchedPairs draws up to n distinct unordered pairs over fps in
// rounds of random perfect matchings, so every graph sits in about the
// same number of pairs and warm traffic touches every graph at about
// the same rate.
func matchedPairs(r *rand.Rand, fps []string, n int) [][2]string {
	seen := make(map[[2]string]bool)
	var out [][2]string
	for round := 0; len(out) < n && round < 4*n/max(len(fps)/2, 1)+1; round++ {
		perm := r.Perm(len(fps))
		for k := 0; k+1 < len(perm) && len(out) < n; k += 2 {
			a, b := fps[perm[k]], fps[perm[k+1]]
			if a > b {
				a, b = b, a
			}
			if p := [2]string{a, b}; !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

func setupServe(ctx context.Context, o options, sz serveSizes, blocks int, times *httpTimes) (*serveEnv, error) {
	corpus, err := genCorpus(o.seed, sz.corpusInputs, sz.corpusSpecs)
	if err != nil {
		return nil, err
	}
	cold, err := genFresh(o.seed^0x636f6c64, mixCount(serveMix, blocks, opCold), sz.coldInputs, corpus.seen)
	if err != nil {
		return nil, err
	}
	//lint:ignore ctxflow service.New starts the daemon's worker pool and returns; the pool's waits end in Close, which every path reaches
	svc := service.New(service.Config{})
	ts := httptest.NewServer(timedHandler{inner: svc.Handler(), times: times})
	hc, closeIdle := newClientHTTP(clientCount(), 1, times)
	env := &serveEnv{svc: svc, ts: ts, closeIdle: closeIdle, cold: cold, ref: newReference()}
	booted := false
	defer func() {
		if !booted {
			env.close()
		}
	}()
	env.cli, err = client.New(client.Config{BaseURL: ts.URL, HTTPClient: hc, Seed: o.seed})
	if err != nil {
		return nil, err
	}
	env.corpus = corpus.fps
	err = submitAll(ctx, corpus, env.ref, func(i int) (service.AIGView, error) {
		return env.cli.SubmitAIG(ctx, corpus.payloads[i])
	})
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(o.seed))
	env.pairs = matchedPairs(r, env.corpus, sz.primed)
	err = parallel(ctx, len(env.pairs), clientCount(), func(i int) error {
		_, err := env.cli.Metrics(ctx, env.pairs[i][0], env.pairs[i][1], nil)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("priming pairs: %w", err)
	}
	perm := r.Perm(len(env.corpus))
	for _, i := range perm[:min(sz.neighborTargets, len(perm))] {
		env.targets = append(env.targets, env.corpus[i])
	}
	err = parallel(ctx, len(env.targets), clientCount(), func(i int) error {
		_, err := env.cli.Neighbors(ctx, env.targets[i], client.NeighborsOptions{K: neighborsK})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("priming neighbors: %w", err)
	}
	booted = true
	return env, nil
}

// timedSetups runs setup setupReps times, keeps the last environment
// and returns the set-up durations.
func timedSetups[E interface{ close() }](setup func() (E, error)) (E, []float64, error) {
	var env E
	var durs []float64
	for i := range setupReps {
		t := time.Now()
		e, err := setup()
		if err != nil {
			return env, nil, err
		}
		durs = append(durs, time.Since(t).Seconds())
		if i < setupReps-1 {
			e.close()
		} else {
			env = e
		}
	}
	return env, durs, nil
}

// coldAnswer is one cold op's result, checked after the phase.
type coldAnswer struct {
	payload []byte
	fp, vs  string
	scores  map[string]float64
}

func runServeMixed(ctx context.Context, o options) (*outcome, error) {
	sz := serveSizesFor(o)
	out := newOutcome()
	times := newHTTPTimes()
	blocks := mixBlocks(serveMix, phaseOps(o, serveRefRate))
	env, setups, err := timedSetups(func() (*serveEnv, error) { return setupServe(ctx, o, sz, blocks, times) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	out.metrics["setup_s"] = median(setups)
	out.samples["setup_s"] = setups
	out.info["corpus"] = len(env.corpus)
	out.info["primed_pairs"] = len(env.pairs)

	ops := genOps(o.seed, serveMix, blocks, func(r *rand.Rand, op *op) {
		switch op.kind {
		case opWarm:
			op.a = int32(r.Intn(len(env.pairs)))
		case opCold:
			op.b = int32(r.Intn(len(env.corpus)))
		case opNeighbors:
			op.a = int32(r.Intn(len(env.targets)))
		}
	})
	var mu sync.Mutex
	shares := &evalShare{}
	var colds []coldAnswer
	do := func(ctx context.Context, op op) error {
		switch op.kind {
		case opWarm:
			p := env.pairs[op.a]
			scores, err := env.cli.Metrics(ctx, p[0], p[1], nil)
			if err != nil {
				return err
			}
			if len(scores) == 0 {
				return fmt.Errorf("empty scores")
			}
		case opCold:
			payload := env.cold[op.a]
			v, err := env.cli.SubmitAIG(ctx, payload)
			if err != nil {
				return err
			}
			vs := env.corpus[op.b]
			scores, err := env.cli.Metrics(ctx, v.Fingerprint, vs, nil)
			if err != nil {
				return err
			}
			mu.Lock()
			colds = append(colds, coldAnswer{payload: payload, fp: v.Fingerprint, vs: vs, scores: scores})
			mu.Unlock()
		case opNeighbors:
			resp, err := env.cli.Neighbors(ctx, env.targets[op.a], client.NeighborsOptions{K: neighborsK})
			if err != nil {
				return err
			}
			shares.observe(resp)
			return checkNeighbors(resp, neighborsK)
		}
		return nil
	}

	untraced, traced := splitPhases(ops, o.trace)
	var st *loadStats
	out.metrics["peak_heap_mb"] = heapPeak(ctx, func() {
		st = closedLoop(ctx, clientCount(), untraced, phaseLimit(o), false, do)
	})
	serviceMetrics(out.metrics, st)
	recordPhase(out, st)

	if o.trace {
		reg, stopTrace := startTracing()
		shares = &evalShare{}
		times.on.Store(true)
		before := readGoStats()
		tst := closedLoop(ctx, clientCount(), traced, phaseLimit(o), true, do)
		after := readGoStats()
		times.on.Store(false)
		layers := zeroLayers()
		serviceMetrics(layers, tst)
		serviceLayers(layers, reg, times, tst)
		goLayer(layers, before, after)
		layers["sketch.evals_per_query"] = shares.load()
		layers["telemetry.overhead"] = (tst.elapsed / float64(max(tst.done, 1))) / (st.elapsed / float64(max(st.done, 1)))
		stopTrace()
		out.layers = layers
		countPhase(out, tst)
	}

	// Correctness, after the clock stopped: every cold answer and a
	// seeded sample of warm answers against in-process scores.
	var coldMu sync.Mutex
	_ = parallel(ctx, len(colds), clientCount(), func(i int) error {
		c := colds[i]
		fp, fresh, err := env.ref.add(c.payload)
		if err == nil && fp != c.fp {
			err = fmt.Errorf("daemon fingerprint %.12s, in-process %.12s", c.fp, fp)
		}
		if err == nil {
			err = env.ref.check(c.fp, c.vs, c.scores)
		}
		if fresh {
			env.ref.forget(fp)
		}
		if err != nil {
			coldMu.Lock()
			out.fail("cold answer: %v", err)
			coldMu.Unlock()
		}
		return nil
	})
	// Warm ops draw uniformly from the primed pairs, whose cached
	// answers they read; re-read a seeded sample of them.
	r := rand.New(rand.NewSource(o.seed ^ 0x7761726d))
	for range sz.warmChecks {
		p := env.pairs[r.Intn(len(env.pairs))]
		scores, err := env.cli.Metrics(ctx, p[0], p[1], nil)
		if err == nil {
			err = env.ref.check(p[0], p[1], scores)
		}
		if err != nil {
			out.fail("warm answer: %v", err)
		}
	}
	out.info["cold_checked"] = len(colds)
	return out, nil
}

// checkNeighbors verifies a k-NN answer: k entries, best first by the
// answering metric, ties broken by fingerprint.
func checkNeighbors(resp service.NeighborsResponse, k int) error {
	if len(resp.Neighbors) != k {
		return fmt.Errorf("neighbors: %d entries, want %d", len(resp.Neighbors), k)
	}
	m, ok := simil.MetricByName(resp.Metric)
	if !ok {
		return fmt.Errorf("neighbors: unknown metric %q", resp.Metric)
	}
	dist := func(s float64) float64 {
		if m.HigherIsSimilar {
			return -s
		}
		return s
	}
	for i := 1; i < len(resp.Neighbors); i++ {
		p, q := resp.Neighbors[i-1], resp.Neighbors[i]
		dp, dq := dist(p.Score), dist(q.Score)
		if math.IsNaN(dp) || math.IsNaN(dq) || dp > dq || (dp == dq && p.Fingerprint > q.Fingerprint) {
			return fmt.Errorf("neighbors: entry %d out of distance order", i)
		}
	}
	return nil
}

// evalShare averages Evals/Corpus over neighbors answers — the share
// of the corpus the sketch index sent to full evaluation.
type evalShare struct {
	mu  sync.Mutex
	sum float64
	n   int
}

func (e *evalShare) observe(resp service.NeighborsResponse) {
	if resp.Corpus == 0 {
		return
	}
	e.mu.Lock()
	e.sum += float64(resp.Evals) / float64(resp.Corpus)
	e.n++
	e.mu.Unlock()
}

func (e *evalShare) load() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		return 0
	}
	return e.sum / float64(e.n)
}
