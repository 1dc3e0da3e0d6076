package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// opKind is a request class of the service workloads; opClasses holds
// their metric names in the same order.
type opKind uint8

const (
	opWarm opKind = iota
	opCold
	opNeighbors
	opHop
	opSubmit
	nKinds
)

// op is one request of a workload's pre-generated sequence. a and b
// index the workload's inputs: for warm and hop a primed pair (a); for
// cold a fresh input (a) scored against a corpus graph (b); for
// neighbors a corpus graph (a); for submit a fresh input (a).
type op struct {
	kind opKind
	a, b int32
}

// mixEntry is how many ops of a kind each block of a mix holds.
type mixEntry struct {
	kind  opKind
	count int
}

// consumesInput reports whether ops of kind k each use up one input
// (a fresh AIG or a hop pair) that no other op reuses.
func (k opKind) consumesInput() bool { return k == opCold || k == opHop || k == opSubmit }

// mixBlocks is how many whole blocks of mix hold at least n ops.
func mixBlocks(mix []mixEntry, n int) int {
	size := 0
	for _, m := range mix {
		size += m.count
	}
	return max(1, (n+size-1)/size)
}

// mixCount is how many ops of kind k the given number of blocks holds.
func mixCount(mix []mixEntry, blocks int, k opKind) int {
	for _, m := range mix {
		if m.kind == k {
			return blocks * m.count
		}
	}
	return 0
}

// genOps builds the op sequence of a mix from seed: blocks blocks,
// each holding every kind in its fixed count, shuffled within the
// block, so every kind keeps its share over any stretch of the phase.
// Kinds that consume an input number their ops 0, 1, … in a; draw
// fills in the remaining operands of an op.
func genOps(seed int64, mix []mixEntry, blocks int, draw func(r *rand.Rand, o *op)) []op {
	r := rand.New(rand.NewSource(seed))
	var kinds []opKind
	var seq [nKinds]int32
	var ops []op
	for range blocks {
		kinds = kinds[:0]
		for _, m := range mix {
			for range m.count {
				kinds = append(kinds, m.kind)
			}
		}
		r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			o := op{kind: k}
			if k.consumesInput() {
				o.a = seq[k]
				seq[k]++
			}
			draw(r, &o)
			ops = append(ops, o)
		}
	}
	return ops
}

// phaseOps is how many ops a service workload runs: a fixed amount of
// work, the ops its reference rate completes in --seconds on the
// 2-CPU host the benchmark was tuned on. Fixed work keeps what the
// work leaves behind — graphs in the store, cached answers, and so the
// heap — the same on a faster or slower build; on this host a run
// still lasts about --seconds. phaseLimit cuts a phase that runs far
// slower than that.
func phaseOps(o options, refRate float64) int { return int(o.seconds * refRate) }

// splitPhases gives the whole sequence to the untraced phase, or with
// tracing its first half to the untraced and the rest to the traced.
func splitPhases(ops []op, trace bool) (untraced, traced []op) {
	if !trace {
		return ops, nil
	}
	return ops[:len(ops)/2], ops[len(ops)/2:]
}

func phaseLimit(o options) time.Duration {
	return time.Duration(3 * o.seconds * float64(time.Second))
}

// loadStats is what one closed-loop phase measured.
type loadStats struct {
	lat       [nKinds][]float64 // client-observed ms per kind
	all       []float64         // every op, ms
	handler   []float64         // traced: server handler ms per op
	overhead  []float64         // traced: client ms minus handler ms per op
	ends      []float64         // completion time of every op, s since start
	elapsed   float64
	done      int
	failed    int
	nonOwner  int // traced: /v1/metrics ops that entered at a non-owner
	metricOps int
	cut       bool // the phase limit stopped the phase early
	errs      []string
}

// opDoer runs one op; it returns the error that makes the op failed.
type opDoer func(ctx context.Context, o op) error

// closedLoop runs `clients` goroutines, each sending its next op only
// after the previous one completed, until every op of the sequence ran
// or limit passed.
func closedLoop(ctx context.Context, clients int, ops []op, limit time.Duration, traced bool, do opDoer) *loadStats {
	start := time.Now()
	deadline := start.Add(limit)
	var cursor atomic.Int64
	parts := make([]*loadStats, clients)
	var cut atomic.Bool
	var wg sync.WaitGroup
	for c := range clients {
		st := &loadStats{}
		parts[c] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := cursor.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				if time.Now().After(deadline) {
					cut.Store(true)
					return
				}
				o := ops[i]
				octx := ctx
				var acc *opAcc
				if traced {
					acc = &opAcc{}
					octx = context.WithValue(ctx, opAccKey{}, acc)
				}
				t0 := time.Now()
				err := do(octx, o)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				st.done++
				st.ends = append(st.ends, time.Since(start).Seconds())
				if err != nil {
					st.failed++
					if len(st.errs) < 10 {
						st.errs = append(st.errs, fmt.Sprintf("%s op: %v", opClasses[o.kind], err))
					}
					continue
				}
				st.lat[o.kind] = append(st.lat[o.kind], ms)
				st.all = append(st.all, ms)
				if acc != nil {
					h := float64(acc.handlerNs) / 1e6
					st.handler = append(st.handler, h)
					st.overhead = append(st.overhead, ms-h)
					if acc.metricsCalls > 0 {
						st.metricOps++
						if acc.nonOwner {
							st.nonOwner++
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	out := &loadStats{elapsed: time.Since(start).Seconds(), cut: cut.Load()}
	for _, p := range parts {
		for k := range p.lat {
			out.lat[k] = append(out.lat[k], p.lat[k]...)
		}
		out.all = append(out.all, p.all...)
		out.handler = append(out.handler, p.handler...)
		out.overhead = append(out.overhead, p.overhead...)
		out.ends = append(out.ends, p.ends...)
		out.done += p.done
		out.failed += p.failed
		out.nonOwner += p.nonOwner
		out.metricOps += p.metricOps
		out.errs = append(out.errs, p.errs...)
	}
	return out
}

// serviceMetrics fills the end-to-end view of one phase into m.
func serviceMetrics(m map[string]float64, st *loadStats) {
	m["ops_per_s"] = float64(st.done) / st.elapsed
	m["op_p50_ms"] = percentile(st.all, 50)
	m["op_p90_ms"] = percentile(st.all, 90)
	for k, name := range opClasses {
		if len(st.lat[k]) > 0 {
			m[name+"_p50_ms"] = percentile(st.lat[k], 50)
			m[name+"_p90_ms"] = percentile(st.lat[k], 90)
		}
	}
	m["failed_share"] = float64(st.failed) / float64(max(st.done, 1))
}

// countPhase books a phase's ops and failures into the outcome.
func countPhase(out *outcome, st *loadStats) {
	out.attempted += st.done
	for _, e := range st.errs {
		out.fail("%s", e)
	}
	out.failed += st.failed - len(st.errs)
}

// recordPhase books the untraced phase: its counts and failures and
// the samples that show drift.
func recordPhase(out *outcome, st *loadStats) {
	countPhase(out, st)
	out.samples["ops_per_s.quarters"] = quarterRates(st.ends, st.elapsed)
	for k, name := range opClasses {
		if n := len(st.lat[k]); n > 0 {
			out.info[name+".count"] = n
		}
	}
	out.info["cut_at_limit"] = st.cut
}

// --- benchmark-owned timers ---------------------------------------------

// handlerHeader carries a node's handler time back to the client side
// in traced runs, so per-op overhead can be split off.
const handlerHeader = "X-Perfbench-Handler-Ns"

// httpTimes collects handler durations by route, from every node.
type httpTimes struct {
	on    atomic.Bool
	mu    sync.Mutex
	route map[string][]float64 // ms
}

func newHTTPTimes() *httpTimes { return &httpTimes{route: make(map[string][]float64)} }

func (t *httpTimes) add(route string, ms float64) {
	t.mu.Lock()
	t.route[route] = append(t.route[route], ms)
	t.mu.Unlock()
}

func (t *httpTimes) p50(route string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.route[route]) == 0 {
		return 0
	}
	return median(t.route[route])
}

// routeOf names the endpoint a request path addresses.
func routeOf(path string) string {
	switch {
	case path == "/v1/metrics":
		return "metrics"
	case path == "/v1/neighbors":
		return "neighbors"
	case path == "/v1/aigs":
		return "aigs"
	case path == "/v1/cluster/fill":
		return "fill"
	case strings.HasPrefix(path, "/v1/cluster/"):
		return "cluster"
	}
	return "other"
}

// timedHandler wraps one node's handler. When timing is on it records
// each request's handler time by route and stamps the time taken until
// the response started into handlerHeader.
type timedHandler struct {
	inner http.Handler
	times *httpTimes
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.times.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	tw := &timedWriter{ResponseWriter: w, start: time.Now()}
	h.inner.ServeHTTP(tw, r)
	h.times.add(routeOf(r.URL.Path), float64(time.Since(tw.start).Nanoseconds())/1e6)
}

type timedWriter struct {
	http.ResponseWriter
	start   time.Time
	stamped bool
}

func (w *timedWriter) stamp() {
	if !w.stamped {
		w.stamped = true
		w.Header().Set(handlerHeader, strconv.FormatInt(time.Since(w.start).Nanoseconds(), 10))
	}
}

func (w *timedWriter) WriteHeader(code int) {
	w.stamp()
	w.ResponseWriter.WriteHeader(code)
}

func (w *timedWriter) Write(p []byte) (int, error) {
	w.stamp()
	return w.ResponseWriter.Write(p)
}

// opAcc accumulates, for one op, what the client transport saw: the
// handler time of each of its requests and where /v1/metrics entered.
// An op runs on one goroutine, and the transport runs on the caller's.
type opAcc struct {
	handlerNs    int64
	metricsCalls int
	nonOwner     bool
	// owners, when set, lists the op's pair owners by URL host.
	owners map[string]bool
}

type opAccKey struct{}

// timedTransport is the benchmark clients' one keep-alive transport.
// In traced runs it books each response's handler time into the op.
type timedTransport struct {
	base  http.RoundTripper
	times *httpTimes
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil || !t.times.on.Load() {
		return resp, err
	}
	if acc, ok := req.Context().Value(opAccKey{}).(*opAcc); ok {
		if ns, perr := strconv.ParseInt(resp.Header.Get(handlerHeader), 10, 64); perr == nil {
			acc.handlerNs += ns
		}
		if req.URL.Path == "/v1/metrics" {
			acc.metricsCalls++
			if acc.owners != nil && !acc.owners[req.URL.Host] {
				acc.nonOwner = true
			}
		}
	}
	return resp, nil
}

// newClientHTTP returns the HTTP client the benchmark's closed-loop
// clients share: one keep-alive transport with an idle pool sized to
// the client count per node.
func newClientHTTP(clients, nodes int, times *httpTimes) (*http.Client, func()) {
	tr := &http.Transport{
		MaxIdleConns:        clients * nodes,
		MaxIdleConnsPerHost: clients,
		IdleConnTimeout:     time.Minute,
	}
	return &http.Client{Transport: timedTransport{base: tr, times: times}}, tr.CloseIdleConnections
}

// clientCount is the closed-loop client count: one per CPU.
func clientCount() int { return runtime.NumCPU() }

// startTracing enables the telemetry registry (reset) and a trace
// collector; the returned function turns both off again.
func startTracing() (*telemetry.Registry, func()) {
	reg := telemetry.Enable()
	reg.Reset()
	trace.SetCollector(trace.NewStore(trace.StoreConfig{}))
	return reg, func() {
		trace.SetCollector(nil)
		telemetry.Disable()
	}
}

// counter reads a registry counter as a float.
func counter(reg *telemetry.Registry, name string) float64 {
	return float64(reg.Counter(name).Value())
}

// serviceLayers fills the layers both service workloads share — the
// request path, cache, sketch, simil, opt passes and client — as
// totals over the traced phase.
func serviceLayers(layers map[string]float64, reg *telemetry.Registry, times *httpTimes, st *loadStats) {
	profileLayers(layers, reg, 1)
	layers["service.metrics.server_ms.p50"] = times.p50("metrics")
	layers["service.neighbors.server_ms.p50"] = times.p50("neighbors")
	layers["service.aigs.server_ms.p50"] = times.p50("aigs")
	hits, misses := counter(reg, "service/cache_hits"), counter(reg, "service/cache_misses")
	if hits+misses > 0 {
		layers["service.cache_hit_ratio"] = hits / (hits + misses)
	}
	layers["service.profile_builds"] = counter(reg, "service/profile_builds")
	layers["service.singleflight_shared"] = counter(reg, "service/singleflight_shared")
	layers["service.shed"] = counter(reg, "service/shed")
	layers["sketch.index_inserts"] = counter(reg, "sketch/index_inserts")
	layers["client.latency_ms.p50"] = percentile(st.all, 50)
	layers["client.handler_ms.p50"] = percentile(st.handler, 50)
	layers["client.overhead_ms.p50"] = percentile(st.overhead, 50)
	layers["client.retries"] = counter(reg, "client/retries")
	layers["client.gateway_failovers"] = counter(reg, "client/gateway_failovers")
	passLayers(layers, reg, 1)
}
