package aig

import (
	"math/rand"
	"testing"

	"repro/internal/tt"
)

func TestEnumerateCutsTrivial(t *testing.T) {
	g := New(2)
	n := g.And(g.PI(0), g.PI(1))
	g.AddPO(n)
	cuts := g.EnumerateCuts(CutParams{K: 4})
	nodeCuts := cuts[n.Node()]
	if len(nodeCuts) < 2 {
		t.Fatalf("expected trivial + leaf cut, got %d", len(nodeCuts))
	}
	if len(nodeCuts[0].Leaves) != 1 || nodeCuts[0].Leaves[0] != n.Node() {
		t.Error("first cut must be the trivial cut")
	}
	found := false
	for _, c := range nodeCuts[1:] {
		if len(c.Leaves) == 2 && c.Leaves[0] == 1 && c.Leaves[1] == 2 {
			found = true
		}
	}
	if !found {
		t.Error("PI cut {1,2} not found")
	}
}

// cutIsValid checks the defining property: recomputing the node function
// from the cut leaves reproduces the node's global function.
func cutIsValid(t *testing.T, g *AIG, tabs []tt.TT, node int, cut Cut) {
	t.Helper()
	if len(cut.Leaves) > 8 {
		return
	}
	local := g.CutTT(node, cut.Leaves)
	// Compose: substitute leaf tables into local function.
	n := g.NumPIs()
	composed := tt.New(n)
	for m := 0; m < local.NumBits(); m++ {
		if !local.Bit(m) {
			continue
		}
		// Minterm m of the local space corresponds to the set of global
		// assignments where each leaf i equals bit i of m.
		part := tt.Const(n, true)
		for i, leaf := range cut.Leaves {
			lt := tabs[leaf]
			if m>>uint(i)&1 == 0 {
				lt = lt.Not()
			}
			part = part.And(lt)
		}
		composed = composed.Or(part)
	}
	if !composed.Equal(tabs[node]) {
		t.Fatalf("cut %v of node %d is not functionally valid", cut.Leaves, node)
	}
}

func TestEnumerateCutsValidity(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	g := randomAIG(6, 50, r)
	tabs := g.SimAll()
	cuts := g.EnumerateCuts(CutParams{K: 4, MaxCuts: 6})
	for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
		for _, c := range cuts[id] {
			if len(c.Leaves) > 4+1 { // trivial cut may be 1; others <= K
				t.Fatalf("node %d cut %v exceeds K", id, c.Leaves)
			}
			cutIsValid(t, g, tabs, id, c)
		}
	}
}

func TestEnumerateCutsLimit(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g := randomAIG(8, 120, r)
	cuts := g.EnumerateCuts(CutParams{K: 4, MaxCuts: 5})
	for id := range cuts {
		nontrivial := len(cuts[id]) - 1
		if nontrivial > 5 {
			t.Fatalf("node %d keeps %d cuts, limit 5", id, nontrivial)
		}
	}
}

func TestCutDominance(t *testing.T) {
	a := Cut{Leaves: []int{1, 2}, Sign: cutSign([]int{1, 2})}
	b := Cut{Leaves: []int{1, 2, 3}, Sign: cutSign([]int{1, 2, 3})}
	if !a.dominates(b) {
		t.Error("subset should dominate superset")
	}
	if b.dominates(a) {
		t.Error("superset should not dominate subset")
	}
	c := Cut{Leaves: []int{1, 4}, Sign: cutSign([]int{1, 4})}
	if a.dominates(c) || c.dominates(a) {
		t.Error("incomparable cuts should not dominate")
	}
}

func TestMergeCutsOverflow(t *testing.T) {
	a := Cut{Leaves: []int{1, 2, 3}, Sign: cutSign([]int{1, 2, 3})}
	b := Cut{Leaves: []int{4, 5}, Sign: cutSign([]int{4, 5})}
	if _, ok := mergeCuts(a, b, 4); ok {
		t.Error("merge exceeding K should fail")
	}
	m, ok := mergeCuts(a, b, 5)
	if !ok || len(m.Leaves) != 5 {
		t.Error("merge within K should succeed")
	}
	// Overlapping merge.
	c := Cut{Leaves: []int{2, 3, 4}, Sign: cutSign([]int{2, 3, 4})}
	m2, ok := mergeCuts(a, c, 4)
	if !ok || len(m2.Leaves) != 4 {
		t.Errorf("overlap merge = %v ok=%v", m2.Leaves, ok)
	}
}

func TestReconvCut(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	g := randomAIG(8, 80, r)
	tabs := g.SimAll()
	for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
		leaves := g.ReconvCut(id, 6)
		if len(leaves) > 6+1 {
			t.Fatalf("node %d: reconv cut has %d leaves", id, len(leaves))
		}
		for i := 1; i < len(leaves); i++ {
			if leaves[i] <= leaves[i-1] {
				t.Fatalf("node %d: leaves not sorted: %v", id, leaves)
			}
		}
		cutIsValid(t, g, tabs, id, Cut{Leaves: leaves, Sign: cutSign(leaves)})
	}
}

// TestCutTTWordMatchesWide pins the single-word CutTT kernel to the
// general per-node-table evaluation on every cut EnumerateCuts and
// ReconvCut produce for random AIGs.
func TestCutTTWordMatchesWide(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	checked := 0
	same := func(g *AIG, id int, leaves []int) {
		t.Helper()
		got, want := g.CutTT(id, leaves), g.cutTTWide(id, leaves)
		if !got.Equal(want) {
			t.Fatalf("node %d leaves %v: CutTT = %s, general path %s", id, leaves, got.Hex(), want.Hex())
		}
		checked++
	}
	for trial := 0; trial < 6; trial++ {
		g := randomAIG(6+trial, 60+40*trial, r)
		for _, k := range []int{4, 6} {
			cuts := g.EnumerateCuts(CutParams{K: k})
			for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
				for _, c := range cuts[id] {
					same(g, id, c.Leaves)
				}
			}
		}
		for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
			for _, max := range []int{3, 5} {
				if leaves := g.ReconvCut(id, max); len(leaves) <= 6 {
					same(g, id, leaves)
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d cuts checked", checked)
	}
}

func TestCutTTPanicsOutsideCut(t *testing.T) {
	// n is the AND of all eight inputs; both leaf sets miss input 0, one
	// on the single-word path and one on the general path.
	g := New(8)
	n := g.PI(0)
	for i := 1; i < 8; i++ {
		n = g.And(n, g.PI(i))
	}
	g.AddPO(n)
	for _, leaves := range [][]int{{7, 8}, {2, 3, 4, 5, 6, 7, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CutTT over %v (not a cut) did not panic", leaves)
				}
			}()
			g.CutTT(n.Node(), leaves)
		}()
	}
}

func TestCutKernelAllocs(t *testing.T) {
	g := randomAIG(8, 120, rand.New(rand.NewSource(45)))
	cuts := g.EnumerateCuts(CutParams{K: 6})
	refs := g.RefCounts()
	id := g.NumObjs() - 1
	var cut Cut
	for _, c := range cuts[id] {
		if len(c.Leaves) > len(cut.Leaves) {
			cut = c
		}
	}
	if a := testing.AllocsPerRun(100, func() { g.CutTT(id, cut.Leaves) }); a > 2 {
		t.Errorf("CutTT on a %d-leaf cut: %v allocs, want <= 2", len(cut.Leaves), a)
	}
	if a := testing.AllocsPerRun(100, func() { g.MFFCSizeBounded(id, refs, cut.Leaves) }); a != 0 {
		t.Errorf("MFFCSizeBounded: %v allocs, want 0", a)
	}
}

// TestMFFCBoundedNodes checks MFFCNodesBounded against MFFCSizeBounded
// and that both restore the reference counts.
func TestMFFCBoundedNodes(t *testing.T) {
	g := randomAIG(8, 120, rand.New(rand.NewSource(46)))
	cuts := g.EnumerateCuts(CutParams{K: 4})
	refs := g.RefCounts()
	for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
		for _, c := range cuts[id] {
			size := g.MFFCSizeBounded(id, refs, c.Leaves)
			nodes := g.MFFCNodesBounded(id, refs, c.Leaves)
			if len(nodes) != size || nodes[0] != id {
				t.Fatalf("node %d cut %v: %d nodes %v, size %d", id, c.Leaves, len(nodes), nodes, size)
			}
			for _, n := range nodes[1:] {
				for _, l := range c.Leaves {
					if n == l {
						t.Fatalf("node %d cut %v: MFFC crosses leaf %d", id, c.Leaves, l)
					}
				}
			}
		}
	}
	for i, want := range g.RefCounts() {
		if refs[i] != want {
			t.Fatal("bounded MFFC left reference counts changed")
		}
	}
}
