package synth

import (
	"slices"

	"repro/internal/aig"
	"repro/internal/tt"
)

// BestStructure synthesizes a small single-output AIG for f over exactly
// f.NumVars() inputs, taking the best of the multi-paradigm recipes. It is
// the resynthesis engine behind rewriting, refactoring, and LUT mapping.
func BestStructure(f tt.TT) *aig.AIG {
	spec := []tt.TT{f}
	candidates := []*aig.AIG{
		SynthDSD(spec),
		SynthFactored(spec),
		SynthShannon(spec),
	}
	// Functions on at most 3 support variables get a provably
	// tree-optimal structure (sharing can, rarely, beat a tree, so the
	// heuristics still compete).
	if exact, ok := ExactStructure3(f); ok {
		candidates = append(candidates, exact)
	}
	best := candidates[0]
	for _, c := range candidates[1:] {
		if c.NumAnds() < best.NumAnds() {
			best = c
		}
	}
	return best
}

// library holds the best known structure per NPN-canonical function, so
// every member of a class reuses one synthesis of its canonical form.
var library = NewMemo(BestStructure)

// byFunction short-circuits LibraryStructure for functions seen before:
// rewriting queries the same cut functions constantly.
var byFunction = NewMemo(wrapCanonical)

// LibraryStructure returns a small implementation of f (up to 6 inputs)
// via the NPN-canonical library: the canonical class is synthesized once
// and reused for every class member through the recorded transform.
// The returned AIG implements f itself (transform already applied to the
// output polarity and input order), over f.NumVars() inputs; input i of
// the result corresponds to variable i of f. It is shared and read-only
// (see Memo).
func LibraryStructure(f tt.TT) *aig.AIG { return byFunction.Get(f) }

// wrapCanonical builds f from its canonical class's library structure.
func wrapCanonical(f tt.TT) *aig.AIG {
	canon, xf := tt.NPNCanon(f)
	mini := library.Get(canon)
	// Wrap the canonical structure with the inverse transform: feed input
	// i of the wrapper (variable i of f) into the canonical input it maps
	// to, and flip polarities as recorded.
	n := f.NumVars()
	g := aig.New(n)
	leaves := make([]aig.Lit, n)
	// Canonical variable i corresponds to original variable xf.Perm[i],
	// complemented when xf.Flips has that original variable set.
	for i := 0; i < n; i++ {
		orig := xf.Perm[i]
		leaves[i] = g.PI(orig).NotCond(xf.Flips>>uint(orig)&1 == 1)
	}
	out := Instantiate(g, mini, leaves)
	g.AddPO(out.NotCond(xf.OutFlip))
	return g.Cleanup()
}

// LibrarySize reports how many canonical classes the library holds.
func LibrarySize() int { return library.Len() }

// Instantiate copies the single-output mini AIG into dst, substituting
// leaves for its primary inputs, and returns the output literal.
func Instantiate(dst *aig.AIG, mini *aig.AIG, leaves []aig.Lit) aig.Lit {
	if mini.NumPIs() != len(leaves) {
		panic("synth: Instantiate leaf count mismatch")
	}
	m := make([]aig.Lit, mini.NumObjs())
	m[0] = aig.LitFalse
	for i := 0; i < mini.NumPIs(); i++ {
		m[i+1] = leaves[i]
	}
	for id := mini.NumPIs() + 1; id < mini.NumObjs(); id++ {
		f0, f1 := mini.Fanins(id)
		a := m[f0.Node()].NotCond(f0.IsCompl())
		b := m[f1.Node()].NotCond(f1.IsCompl())
		m[id] = dst.And(a, b)
	}
	po := mini.PO(0)
	return m[po.Node()].NotCond(po.IsCompl())
}

// InstantiateCost reports how many new AND nodes Instantiate would create
// in dst, without modifying dst: existing shared structure is free. Nodes
// that would be fresh are modeled with virtual ids beyond dst's range so
// that downstream lookups correctly miss while constant folding still
// applies.
func InstantiateCost(dst *aig.AIG, mini *aig.AIG, leaves []aig.Lit) int {
	return InstantiateCostBlocked(dst, mini, leaves, nil)
}

// InstantiateCostBlocked is InstantiateCost with a list of dst node ids
// that must not count as shareable — typically the MFFC about to be
// removed by the replacement whose cost is being estimated. The list is
// short and searched linearly.
func InstantiateCostBlocked(dst *aig.AIG, mini *aig.AIG, leaves []aig.Lit, blocked []int) int {
	if mini.NumPIs() != len(leaves) {
		panic("synth: InstantiateCost leaf count mismatch")
	}
	// Library and factored structures are small: map them on the stack.
	var buf [64]aig.Lit
	m := buf[:0]
	if n := mini.NumObjs(); n <= len(buf) {
		m = buf[:n]
	} else {
		m = make([]aig.Lit, n)
	}
	m[0] = aig.LitFalse
	for i := 0; i < mini.NumPIs(); i++ {
		m[i+1] = leaves[i]
	}
	nextVirtual := dst.NumObjs()
	cost := 0
	for id := mini.NumPIs() + 1; id < mini.NumObjs(); id++ {
		f0, f1 := mini.Fanins(id)
		a := m[f0.Node()].NotCond(f0.IsCompl())
		b := m[f1.Node()].NotCond(f1.IsCompl())
		if l, ok := dst.Lookup(a, b); ok && !slices.Contains(blocked, l.Node()) {
			m[id] = l
			continue
		}
		m[id] = aig.MakeLit(nextVirtual, false)
		nextVirtual++
		cost++
	}
	return cost
}
