package opt

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/aig"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// memoChain builds a small multi-level AIG; flip complements one fanin
// of the last AND, name renames PI 0. Everything else is identical.
func memoChain(flip bool, name string) *aig.AIG {
	g := aig.New(4)
	g.SetPIName(0, name)
	x := g.And(g.PI(0), g.PI(1))
	y := g.Or(g.And(x, g.PI(2)), g.And(x.Not(), g.PI(3)))
	g.AddPO(g.Xor(y, g.And(g.PI(1), g.PI(2).NotCond(flip))))
	g.AddPO(g.Or(x, y))
	return g
}

// plant stores (in, out) in m under the key a rewrite of g with opts
// looks up, whatever in is.
func plant(m *PassMemo, g *aig.AIG, opts RewriteOptions, in, out *aig.AIG) {
	key := passKey{hash: g.StructHash(), pass: "rewrite", opts: opts}
	if m.entries == nil {
		m.entries = make(map[passKey][]passEntry)
	}
	m.entries[key] = append(m.entries[key], passEntry{in: in, out: out})
}

// TestPassMemoExactMatch: a hit needs an input identical to the planted
// one, not just its key; a different options value misses; a pass that
// returned its input returns the caller's own graph; a nil memo runs
// the pass.
func TestPassMemoExactMatch(t *testing.T) {
	g := memoChain(false, "a")
	fresh := RewriteOnce(g, RewriteOptions{})
	sentinel := aig.New(0)

	for _, in := range []*aig.AIG{memoChain(true, "a"), memoChain(false, "b")} {
		if aig.SameStructure(in, g) {
			t.Fatal("fixture inputs are identical")
		}
		m := &PassMemo{}
		plant(m, g, RewriteOptions{}, in, sentinel)
		got := m.RewriteOnce(g, RewriteOptions{})
		if got == sentinel || !aig.SameStructure(got, fresh) {
			t.Fatal("hit taken for an input that differs from the stored one")
		}
	}

	m := &PassMemo{}
	plant(m, g, RewriteOptions{}, g.Clone(), sentinel)
	if got := m.RewriteOnce(g, RewriteOptions{}); got != sentinel {
		t.Fatal("identical input missed the planted entry")
	}
	zc := RewriteOptions{ZeroCost: true}
	if got := m.RewriteOnce(g, zc); got == sentinel || !aig.SameStructure(got, RewriteOnce(g, zc)) {
		t.Fatal("a different options value hit")
	}

	m = &PassMemo{}
	in := g.Clone()
	plant(m, g, RewriteOptions{}, in, in)
	if got := m.RewriteOnce(g, RewriteOptions{}); got != g {
		t.Fatal("a pass that returned its input did not return the caller's graph")
	}

	var none *PassMemo
	if got := none.RewriteOnce(g, RewriteOptions{}); !aig.SameStructure(got, fresh) {
		t.Fatal("nil memo result differs from the pass")
	}
	if got := none.DC2(g); !aig.SameStructure(got, DC2(g)) {
		t.Fatal("nil memo DC2 differs from DC2")
	}
}

// memoSpecs returns six small suite specs and the synthesized variants
// of each, one slice per spec.
func memoSpecs(t *testing.T) [][]*aig.AIG {
	t.Helper()
	specs := workload.FilterByInputs(workload.Suite(2024), 4)
	if len(specs) < 6 {
		t.Fatalf("suite has %d specs of ≤4 inputs", len(specs))
	}
	out := make([][]*aig.AIG, 6)
	for i, spec := range specs[:6] {
		for _, rec := range synth.Recipes() {
			out[i] = append(out[i], rec.Build(spec.Outputs))
		}
	}
	return out
}

// TestFlowsPassMemoMatchesFresh runs every flow on every recipe of six
// suite specs with one memo per spec, as the harness does, and checks
// each result is the structure the memo-less flow builds: first on a
// cold memo, then again on the warm one, where every pass call must be
// a hit.
func TestFlowsPassMemoMatchesFresh(t *testing.T) {
	reg := telemetry.Enable()
	defer telemetry.Disable()
	for si, variants := range memoSpecs(t) {
		want := make([][]*aig.AIG, len(variants))
		for vi, g := range variants {
			for _, f := range Flows() {
				want[vi] = append(want[vi], f.Run(g, int64(vi)))
			}
		}
		ctx := WithPassMemo(context.Background())
		for _, state := range []string{"cold", "warm"} {
			reg.Reset()
			for vi, g := range variants {
				for fi, f := range Flows() {
					if got := f.RunCtx(ctx, g, int64(vi)); !aig.SameStructure(got, want[vi][fi]) {
						t.Fatalf("spec %d variant %d %s (%s memo): result differs from the memo-less flow", si, vi, f.Name, state)
					}
				}
			}
		}
		for _, p := range []string{"rewrite", "refactor", "resub", "balance"} {
			if n := reg.SpanStats("opt/" + p).Count; n != 0 {
				t.Errorf("spec %d: warm memo still ran %d %s passes", si, n, p)
			}
		}
		if reg.Counter("opt/rewrite/memo_hits").Value() == 0 {
			t.Errorf("spec %d: warm memo took no rewrite hits", si)
		}
	}
}

// TestPassMemoConcurrent runs DC2 and Orchestrate from eight goroutines
// on one shared memo; each must get the serial, memo-less answer. Run
// it under -race.
func TestPassMemoConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(151))
	graphs := make([]*aig.AIG, 4)
	for i := range graphs {
		graphs[i] = memoTestAIG(r, i)
	}
	ctx := WithPassMemo(context.Background())
	m := passMemoFrom(ctx)
	const workers = 8
	results := make([]*aig.AIG, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := graphs[w%len(graphs)]
			if w%2 == 0 {
				results[w] = m.DC2(g)
			} else {
				results[w] = Orchestrate(ctx, g, 24)
			}
		}(w)
	}
	wg.Wait()
	for w, got := range results {
		g := graphs[w%len(graphs)]
		want := DC2(g)
		if w%2 == 1 {
			want = Orchestrate(context.Background(), g, 24)
		}
		if !aig.SameStructure(got, want) {
			t.Fatalf("worker %d: result on the shared memo differs from the serial one", w)
		}
	}
}
