package opt

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/aig"
	"repro/internal/synth"
	"repro/internal/tt"
)

// sameStructure reports whether a and b are the same AIG node for node:
// equal PI counts, fanins of every AND and output literals.
func sameStructure(a, b *aig.AIG) bool {
	if a.NumPIs() != b.NumPIs() || a.NumObjs() != b.NumObjs() || a.NumPOs() != b.NumPOs() {
		return false
	}
	for id := a.NumPIs() + 1; id < a.NumObjs(); id++ {
		a0, a1 := a.Fanins(id)
		b0, b1 := b.Fanins(id)
		if a0 != b0 || a1 != b1 {
			return false
		}
	}
	for i := 0; i < a.NumPOs(); i++ {
		if a.PO(i) != b.PO(i) {
			return false
		}
	}
	return true
}

// checkFactored asserts that the memoized structure for f is the one a
// fresh computation builds and that it implements f.
func checkFactored(t *testing.T, f tt.TT) {
	t.Helper()
	got := factoredStructure(f)
	if !sameStructure(got, buildFactored(f)) {
		t.Fatalf("%d-var %s: memoized structure differs from a fresh build", f.NumVars(), f.Hex())
	}
	if !got.OutputTTs()[0].Equal(f) {
		t.Fatalf("%d-var %s: memoized structure implements another function", f.NumVars(), f.Hex())
	}
}

func TestFactoredMemoMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	fs := make([]tt.TT, 2000)
	for i := range fs {
		fs[i] = tt.Random(2+i%5, r)
	}
	// The first round fills the memo, the second is served from it.
	for round := 0; round < 2; round++ {
		for _, f := range fs {
			checkFactored(t, f)
		}
	}
}

func TestFactoredMemoPastCap(t *testing.T) {
	r := rand.New(rand.NewSource(132))
	var fs []tt.TT
	// Insert distinct 5-variable functions until the memo restarts, then
	// keep going so old and new entries are both in play.
	evicted := false
	for i := 0; i < 10000; i++ {
		before := factored.Len()
		f := tt.Random(5, r)
		fs = append(fs, f)
		factoredStructure(f)
		if factored.Len() < before {
			evicted = true
			break
		}
	}
	if !evicted {
		t.Fatalf("memo held %d structures after %d inserts without restarting", factored.Len(), len(fs))
	}
	for i := 0; i < 200; i++ {
		f := tt.Random(5, r)
		fs = append(fs, f)
		factoredStructure(f)
	}
	for _, f := range fs {
		checkFactored(t, f)
	}
}

// memoTestAIG synthesizes a multi-output function whose cones give both
// passes plenty of cut and cone functions to look up.
func memoTestAIG(r *rand.Rand, recipe int) *aig.AIG {
	spec := []tt.TT{tt.Random(6, r), tt.Random(6, r), tt.Random(5, r).Expand(6)}
	return synth.Recipes()[recipe%len(synth.Recipes())].Build(spec)
}

// sharedStructures returns the memoized structures RewriteOnce and
// RefactorOnce look up on g: every non-trivial compacted cut function of
// rewriting and every compacted reconvergent cone of refactoring.
func sharedStructures(g *aig.AIG) []*aig.AIG {
	var out []*aig.AIG
	add := func(leaves []int, f tt.TT, lookup func(tt.TT) *aig.AIG) {
		if kept, cf := compactCut(leaves, f); len(kept) >= 2 {
			out = append(out, lookup(cf))
		}
	}
	ro, fo := RewriteOptions{}, RefactorOptions{}
	cuts := g.EnumerateCuts(aig.CutParams{K: ro.k(), MaxCuts: ro.MaxCuts})
	for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
		for _, cut := range cuts[id] {
			if len(cut.Leaves) >= 2 {
				add(cut.Leaves, g.CutTT(id, cut.Leaves), synth.LibraryStructure)
			}
		}
		if leaves := g.ReconvCut(id, fo.maxLeaves()); len(leaves) >= 3 {
			add(leaves, g.CutTT(id, leaves), factoredStructure)
		}
	}
	return out
}

func TestPassesLeaveSharedStructuresUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(133))
	for trial := 0; trial < 4; trial++ {
		g := memoTestAIG(r, trial)
		shared := sharedStructures(g)
		if len(shared) == 0 {
			t.Fatalf("trial %d: no memoized structures looked up", trial)
		}
		snaps := make([]*aig.AIG, len(shared))
		for i, s := range shared {
			snaps[i] = s.Clone()
		}
		for _, p := range []passFn{
			{"rewrite", func(g *aig.AIG) *aig.AIG { return RewriteOnce(g, RewriteOptions{}) }},
			{"rewrite-z", func(g *aig.AIG) *aig.AIG { return RewriteOnce(g, RewriteOptions{ZeroCost: true}) }},
			{"refactor", func(g *aig.AIG) *aig.AIG { return RefactorOnce(g, RefactorOptions{}) }},
			{"refactor-z", func(g *aig.AIG) *aig.AIG { return RefactorOnce(g, RefactorOptions{ZeroCost: true}) }},
		} {
			mustEquiv(t, p.name, g, p.run(g))
			for i, s := range shared {
				if !sameStructure(s, snaps[i]) {
					t.Fatalf("trial %d: %s modified shared structure %d", trial, p.name, i)
				}
			}
		}
	}
}

func TestRefactorConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(134))
	graphs := make([]*aig.AIG, 4)
	for i := range graphs {
		graphs[i] = memoTestAIG(r, i)
	}
	// Eight goroutines over four graphs: pairs race on the same cone
	// functions, cold and warm, and must each get the serial answer.
	const workers = 8
	results := make([]*aig.AIG, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = RefactorOnce(graphs[w%len(graphs)], RefactorOptions{})
		}(w)
	}
	wg.Wait()
	for w, got := range results {
		g := graphs[w%len(graphs)]
		mustEquiv(t, "refactor", g, got)
		if !sameStructure(got, RefactorOnce(g, RefactorOptions{})) {
			t.Fatalf("worker %d: concurrent refactor differs from the serial result", w)
		}
	}
}
