package aig

import (
	"fmt"
	"math/rand"

	"repro/internal/tt"
)

// SimAll computes the complete truth table of every node over the primary
// inputs by exhaustive simulation. The result is indexed by node id and is
// the table of the plain (non-complemented) literal. Practical up to
// roughly 16 inputs.
func (g *AIG) SimAll() []tt.TT {
	n := g.numPIs
	if n > tt.MaxVars {
		panic(fmt.Sprintf("aig: SimAll limited to %d inputs, got %d", tt.MaxVars, n))
	}
	tabs := make([]tt.TT, g.NumObjs())
	tabs[0] = tt.New(n)
	for i := 1; i <= n; i++ {
		tabs[i] = tt.Var(i-1, n)
	}
	for id := n + 1; id < g.NumObjs(); id++ {
		f0, f1 := g.fanin0[id], g.fanin1[id]
		a := tabs[f0.Node()]
		if f0.IsCompl() {
			a = a.Not()
		}
		b := tabs[f1.Node()]
		if f1.IsCompl() {
			b = b.Not()
		}
		tabs[id] = a.And(b)
	}
	return tabs
}

// LitTT returns the truth table of literal l given per-node tables from
// SimAll.
func LitTT(tabs []tt.TT, l Lit) tt.TT {
	t := tabs[l.Node()]
	if l.IsCompl() {
		return t.Not()
	}
	return t
}

// OutputTTs returns the truth table of every primary output.
func (g *AIG) OutputTTs() []tt.TT {
	tabs := g.SimAll()
	out := make([]tt.TT, g.NumPOs())
	for i, po := range g.pos {
		out[i] = LitTT(tabs, po)
	}
	return out
}

// Equivalent reports whether two AIGs with identical PI/PO counts compute
// the same functions, by exhaustive simulation. It returns the index of
// the first differing output, or -1 when equivalent.
func Equivalent(a, b *AIG) (int, error) {
	if a.NumPIs() != b.NumPIs() {
		return -1, fmt.Errorf("aig: PI count mismatch: %d vs %d", a.NumPIs(), b.NumPIs())
	}
	if a.NumPOs() != b.NumPOs() {
		return -1, fmt.Errorf("aig: PO count mismatch: %d vs %d", a.NumPOs(), b.NumPOs())
	}
	ta, tb := a.OutputTTs(), b.OutputTTs()
	for i := range ta {
		if !ta[i].Equal(tb[i]) {
			return i, nil
		}
	}
	return -1, nil
}

// EquivalentToTTs reports whether the AIG computes exactly the given
// output truth tables, by exhaustive simulation. It returns the index of
// the first differing output, or -1 when every output matches. This is
// the harness's load-bearing guardrail: every synthesized and optimized
// AIG is checked against its specification before it may contribute to
// the diversity analysis.
func (g *AIG) EquivalentToTTs(spec []tt.TT) (int, error) {
	if len(spec) != g.NumPOs() {
		return -1, fmt.Errorf("aig: PO count mismatch: %d vs %d spec outputs", g.NumPOs(), len(spec))
	}
	if len(spec) > 0 && spec[0].NumVars() != g.NumPIs() {
		return -1, fmt.Errorf("aig: PI count mismatch: %d vs %d spec vars", g.NumPIs(), spec[0].NumVars())
	}
	tabs := g.OutputTTs()
	for i := range tabs {
		if !tabs[i].Equal(spec[i]) {
			return i, nil
		}
	}
	return -1, nil
}

// SimVector simulates the AIG on 64 input patterns packed bitwise: pat[i]
// holds the 64 values of PI i. The result holds one word per node, plus
// the complement convention of SimAll.
func (g *AIG) SimVector(pat []uint64) []uint64 {
	if len(pat) != g.numPIs {
		panic("aig: SimVector pattern width mismatch")
	}
	vals := make([]uint64, g.NumObjs())
	for i := 1; i <= g.numPIs; i++ {
		vals[i] = pat[i-1]
	}
	for id := g.numPIs + 1; id < g.NumObjs(); id++ {
		f0, f1 := g.fanin0[id], g.fanin1[id]
		a := vals[f0.Node()]
		if f0.IsCompl() {
			a = ^a
		}
		b := vals[f1.Node()]
		if f1.IsCompl() {
			b = ^b
		}
		vals[id] = a & b
	}
	return vals
}

// RandomSimCheck compares two AIGs on rounds*64 random patterns and
// reports the first output found to differ, or -1. It is a fast filter
// for large designs where exhaustive simulation is infeasible.
func RandomSimCheck(a, b *AIG, rounds int, r *rand.Rand) (int, error) {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return -1, fmt.Errorf("aig: interface mismatch")
	}
	pat := make([]uint64, a.NumPIs())
	for k := 0; k < rounds; k++ {
		for i := range pat {
			pat[i] = r.Uint64()
		}
		va, vb := a.SimVector(pat), b.SimVector(pat)
		for i := range a.pos {
			la, lb := a.pos[i], b.pos[i]
			wa := va[la.Node()]
			if la.IsCompl() {
				wa = ^wa
			}
			wb := vb[lb.Node()]
			if lb.IsCompl() {
				wb = ^wb
			}
			if wa != wb {
				return i, nil
			}
		}
	}
	return -1, nil
}

// Eval evaluates all outputs on a single assignment, where bit i of input
// holds the value of PI i.
func (g *AIG) Eval(input uint64) []bool {
	pat := make([]uint64, g.numPIs)
	for i := range pat {
		if input>>uint(i)&1 == 1 {
			pat[i] = ^uint64(0)
		}
	}
	vals := g.SimVector(pat)
	out := make([]bool, g.NumPOs())
	for i, po := range g.pos {
		w := vals[po.Node()]
		if po.IsCompl() {
			w = ^w
		}
		out[i] = w&1 == 1
	}
	return out
}

// CutTT computes the local truth table of node root expressed over the
// given cut leaves (at most tt.MaxVars of them). Leaves are node ids; the
// i-th leaf becomes variable i. A cut of at most six leaves evaluates
// into one word: the leaves and the cone's few AND nodes sit in a stack
// array searched linearly. Wider cuts go through cutTTWide.
func (g *AIG) CutTT(root int, leaves []int) tt.TT {
	if len(leaves) > 6 {
		return g.cutTTWide(root, leaves)
	}
	var buf [32]cutNode
	known := buf[:0]
	for i, leaf := range leaves {
		known = append(known, cutNode{leaf, cutVarWords[i]})
	}
	w, _ := g.cutEval(root, known)
	return tt.FromWords(len(leaves), []uint64{w}) // masks the unused bits
}

// cutVarWords[i] is the table word of variable i over six variables.
var cutVarWords = func() (w [6]uint64) {
	for i := range w {
		w[i] = tt.Var(i, 6).Words()[0]
	}
	return w
}()

// cutNode is one evaluated node of a cut cone: its id and table word.
type cutNode struct {
	id int
	w  uint64
}

// cutEval returns the word of node id, appending every node it evaluates
// to known.
func (g *AIG) cutEval(id int, known []cutNode) (uint64, []cutNode) {
	for _, k := range known {
		if k.id == id {
			return k.w, known
		}
	}
	if !g.IsAnd(id) {
		panic(fmt.Sprintf("aig: CutTT reached non-AND node %d outside the cut", id))
	}
	f0, f1 := g.fanin0[id], g.fanin1[id]
	a, known := g.cutEval(f0.Node(), known)
	b, known := g.cutEval(f1.Node(), known)
	if f0.IsCompl() {
		a = ^a
	}
	if f1.IsCompl() {
		b = ^b
	}
	return a & b, append(known, cutNode{id, a & b})
}

// cutTTWide is CutTT for any number of leaves, one table per cone node.
func (g *AIG) cutTTWide(root int, leaves []int) tt.TT {
	n := len(leaves)
	local := make(map[int]tt.TT, len(leaves)*2)
	for i, leaf := range leaves {
		local[leaf] = tt.Var(i, n)
	}
	var eval func(id int) tt.TT
	eval = func(id int) tt.TT {
		if t, ok := local[id]; ok {
			return t
		}
		if !g.IsAnd(id) {
			panic(fmt.Sprintf("aig: CutTT reached non-AND node %d outside the cut", id))
		}
		f0, f1 := g.fanin0[id], g.fanin1[id]
		a := eval(f0.Node())
		if f0.IsCompl() {
			a = a.Not()
		}
		b := eval(f1.Node())
		if f1.IsCompl() {
			b = b.Not()
		}
		t := a.And(b)
		local[id] = t
		return t
	}
	return eval(root)
}
