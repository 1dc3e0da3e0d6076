package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/service/client"
)

// clusterSizes fixes the inputs of cluster-gateway.
type clusterSizes struct {
	corpusInputs, corpusSpecs int
	warm                      int // primed pairs gateway-routed warm ops draw from
	checks                    int // warm and hop answers checked against in-process scores
}

func clusterSizesFor(o options) clusterSizes {
	if o.smoke {
		return clusterSizes{corpusInputs: 4, corpusSpecs: 14, warm: 30, checks: 8}
	}
	return clusterSizes{corpusInputs: 6, corpusSpecs: 65, warm: 1000, checks: 32}
}

// clusterMix is the stationary request mix of cluster-gateway, per
// block of 50 ops: 88% gateway-routed warm, 10% non-owner hop, 2%
// fresh submits.
var clusterMix = []mixEntry{{opWarm, 44}, {opHop, 5}, {opSubmit, 1}}

// clusterRefRate is cluster-gateway's reference rate in ops per second
// (see phaseOps).
const clusterRefRate = 6000

const (
	clusterNodes = 3
	clusterRepl  = 2
	// entryNode is the fixed node hop ops enter at.
	entryNode = "n1"
)

// clusterMetrics is the metric set cluster ops ask for: the two
// structural metrics that need no per-graph artifacts, so the routing
// layers, not profile construction, carry the cost.
var clusterMetrics = []string{"RGC", "RLC"}

// swapHandler lets a node's URL exist before the node does.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "booting", http.StatusServiceUnavailable)
}

// clusterEnv is three booted nodes behind a gateway, corpus submitted
// everywhere and pairs primed at their owners.
type clusterEnv struct {
	servers   []*httptest.Server
	svcs      []*service.Server
	nodes     []*cluster.Node
	gw        *client.Gateway
	closeIdle func()
	hostNode  map[string]string // URL host → node ID
	corpus    []string
	warm      [][2]string
	hop       [][2]string
	fresh     [][]byte
	ref       *reference
}

func (e *clusterEnv) close() {
	if e.closeIdle != nil {
		e.closeIdle()
	}
	for _, n := range e.nodes {
		n.Close()
	}
	for _, s := range e.svcs {
		s.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
}

// ownerHosts returns the URL hosts of a pair's owners.
func (e *clusterEnv) ownerHosts(a, b string) map[string]bool {
	out := make(map[string]bool)
	owners := e.gw.PairOwners(a, b)
	for host, id := range e.hostNode {
		for _, o := range owners {
			if o == id {
				out[host] = true
			}
		}
	}
	return out
}

// shuffledPairs returns every unordered pair over fps in seeded random
// order.
func shuffledPairs(r *rand.Rand, fps []string) [][2]string {
	all := make([][2]string, 0, len(fps)*(len(fps)-1)/2)
	for i := range fps {
		for j := i + 1; j < len(fps); j++ {
			a, b := fps[i], fps[j]
			if a > b {
				a, b = b, a
			}
			all = append(all, [2]string{a, b})
		}
	}
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all
}

func setupCluster(ctx context.Context, o options, sz clusterSizes, blocks int, times *httpTimes) (*clusterEnv, error) {
	corpus, err := genCorpus(o.seed, sz.corpusInputs, sz.corpusSpecs)
	if err != nil {
		return nil, err
	}
	hops := mixCount(clusterMix, blocks, opHop)
	fresh, err := genFresh(o.seed^0x66726573, mixCount(clusterMix, blocks, opSubmit), 4, corpus.seen)
	if err != nil {
		return nil, err
	}
	env := &clusterEnv{fresh: fresh, ref: newReference(), hostNode: make(map[string]string)}
	booted := false
	defer func() {
		if !booted {
			env.close()
		}
	}()
	peers := make(map[string]string, clusterNodes)
	swaps := make([]*swapHandler, clusterNodes)
	ids := make([]string, clusterNodes)
	for i := range clusterNodes {
		ids[i] = fmt.Sprintf("n%d", i+1)
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		env.servers = append(env.servers, ts)
		peers[ids[i]] = ts.URL
		u, err := url.Parse(ts.URL)
		if err != nil {
			return nil, err
		}
		env.hostNode[u.Host] = ids[i]
	}
	for i, id := range ids {
		//lint:ignore ctxflow service.New starts the daemon's worker pool and returns; the pool's waits end in Close, which every path reaches
		svc := service.New(service.Config{})
		env.svcs = append(env.svcs, svc)
		//lint:ignore ctxflow cluster.New starts the node's health prober and returns; the prober stops in Node.Close, which every path reaches
		node, err := cluster.New(svc, cluster.Config{NodeID: id, Peers: peers, Replication: clusterRepl})
		if err != nil {
			return nil, err
		}
		env.nodes = append(env.nodes, node)
		var h http.Handler = timedHandler{inner: node.Handler(), times: times}
		swaps[i].h.Store(&h)
	}
	hc, closeIdle := newClientHTTP(clientCount(), clusterNodes, times)
	env.closeIdle = closeIdle
	env.gw, err = client.NewGateway(client.GatewayConfig{
		Peers: peers, Replication: clusterRepl,
		Client: client.Config{HTTPClient: hc, Seed: o.seed},
	})
	if err != nil {
		return nil, err
	}

	// The corpus goes to every node.
	env.corpus = corpus.fps
	for _, id := range ids {
		c, _ := env.gw.Client(id)
		err := submitAll(ctx, corpus, env.ref, func(i int) (service.AIGView, error) {
			return c.SubmitAIG(ctx, corpus.payloads[i])
		})
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", id, err)
		}
	}

	// Warm pairs are any pairs; hop pairs are owned away from the entry
	// node. Each is primed at its first owner.
	r := rand.New(rand.NewSource(o.seed))
	for _, p := range shuffledPairs(r, env.corpus) {
		if len(env.warm) < sz.warm {
			env.warm = append(env.warm, p)
			continue
		}
		if len(env.hop) < hops && !slices.Contains(env.gw.PairOwners(p[0], p[1]), entryNode) {
			env.hop = append(env.hop, p)
		}
	}
	if len(env.hop) < hops {
		return nil, fmt.Errorf("corpus of %d graphs yields only %d of %d hop pairs", len(env.corpus), len(env.hop), hops)
	}
	primed := append(append([][2]string(nil), env.warm...), env.hop...)
	err = parallel(ctx, len(primed), clientCount(), func(i int) error {
		p := primed[i]
		c, _ := env.gw.Client(env.gw.PairOwners(p[0], p[1])[0])
		_, err := c.Metrics(ctx, p[0], p[1], clusterMetrics)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("priming pairs: %w", err)
	}
	booted = true
	return env, nil
}

func runClusterGateway(ctx context.Context, o options) (*outcome, error) {
	sz := clusterSizesFor(o)
	out := newOutcome()
	times := newHTTPTimes()
	blocks := mixBlocks(clusterMix, phaseOps(o, clusterRefRate))
	env, setups, err := timedSetups(func() (*clusterEnv, error) { return setupCluster(ctx, o, sz, blocks, times) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	out.metrics["setup_s"] = median(setups)
	out.samples["setup_s"] = setups
	out.info["corpus"] = len(env.corpus)

	ops := genOps(o.seed, clusterMix, blocks, func(r *rand.Rand, op *op) {
		if op.kind == opWarm {
			op.a = int32(r.Intn(len(env.warm)))
		}
	})
	entry, _ := env.gw.Client(entryNode)
	var mu sync.Mutex
	answers := make(map[[2]string]map[string]float64)
	var used [][2]string
	keep := func(p [2]string, scores map[string]float64) {
		mu.Lock()
		if _, ok := answers[p]; !ok {
			answers[p] = scores
			used = append(used, p)
		}
		mu.Unlock()
	}
	do := func(ctx context.Context, op op) error {
		acc, _ := ctx.Value(opAccKey{}).(*opAcc)
		switch op.kind {
		case opWarm:
			p := env.warm[op.a]
			if acc != nil {
				acc.owners = env.ownerHosts(p[0], p[1])
			}
			scores, err := env.gw.Metrics(ctx, p[0], p[1], clusterMetrics)
			if err != nil {
				return err
			}
			keep(p, scores)
		case opHop:
			p := env.hop[op.a]
			if acc != nil {
				acc.owners = env.ownerHosts(p[0], p[1])
			}
			scores, err := entry.Metrics(ctx, p[0], p[1], clusterMetrics)
			if err != nil {
				return err
			}
			keep(p, scores)
		case opSubmit:
			v, err := env.gw.SubmitAIG(ctx, env.fresh[op.a])
			if err != nil {
				return err
			}
			if v.Known {
				return fmt.Errorf("fresh AIG %d was already stored", op.a)
			}
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
		times.on.Store(true)
		before := readGoStats()
		tst := closedLoop(ctx, clientCount(), traced, phaseLimit(o), true, do)
		after := readGoStats()
		times.on.Store(false)
		layers := zeroLayers()
		serviceMetrics(layers, tst)
		serviceLayers(layers, reg, times, tst)
		goLayer(layers, before, after)
		layers["cluster.fill.count"] = counter(reg, "cluster/fills")
		layers["cluster.fill_ms.p50"] = times.p50("fill")
		layers["cluster.replicate.count"] = counter(reg, "cluster/replications")
		layers["cluster.route_cache_hits"] = counter(reg, "cluster/route_cache_hits")
		if tst.metricOps > 0 {
			layers["cluster.nonowner_share"] = float64(tst.nonOwner) / float64(tst.metricOps)
		}
		layers["telemetry.overhead"] = (tst.elapsed / float64(max(tst.done, 1))) / (st.elapsed / float64(max(st.done, 1)))
		stopTrace()
		out.layers = layers
		countPhase(out, tst)
	}

	// Correctness, after the clock stopped: a seeded sample of the
	// answers warm and hop ops got, against in-process scores.
	sort.Slice(used, func(i, j int) bool {
		return used[i][0] < used[j][0] || (used[i][0] == used[j][0] && used[i][1] < used[j][1])
	})
	r := rand.New(rand.NewSource(o.seed ^ 0x686f70))
	for range min(sz.checks, len(used)) {
		p := used[r.Intn(len(used))]
		if err := env.ref.checkSubset(p[0], p[1], clusterMetrics, answers[p]); err != nil {
			out.fail("cluster answer: %v", err)
		}
	}
	out.info["checked"] = min(sz.checks, len(used))
	return out, nil
}
