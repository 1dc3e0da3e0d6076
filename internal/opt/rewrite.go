package opt

import (
	"slices"

	"repro/internal/aig"
	"repro/internal/synth"
	"repro/internal/tt"
)

// RewriteOptions tunes the cut-rewriting pass.
type RewriteOptions struct {
	// ZeroCost also commits replacements with zero gain, diversifying the
	// structure (ABC's rw -z).
	ZeroCost bool
	// K is the cut size (default 4, the classic DAC'06 setting).
	K int
	// MaxCuts bounds priority cuts per node (default 8).
	MaxCuts int
}

func (o RewriteOptions) k() int {
	if o.K < 2 {
		return 4
	}
	if o.K > 6 {
		return 6 // NPN library limit
	}
	return o.K
}

// RewriteOnce performs a single DAG-aware rewriting pass: for every node,
// the K-feasible cuts are enumerated, each cut function is NPN-
// canonicalized and resynthesized from the precomputed library, and the
// best positive-gain replacement (saved MFFC minus newly added structure)
// is committed. Returns the rebuilt graph.
func RewriteOnce(g *aig.AIG, opts RewriteOptions) *aig.AIG {
	return instrumentPass("rewrite", g, func() *aig.AIG { return rewriteOnce(g, opts) })
}

func rewriteOnce(g *aig.AIG, opts RewriteOptions) *aig.AIG {
	cuts := g.EnumerateCuts(aig.CutParams{K: opts.k(), MaxCuts: opts.MaxCuts})
	refs := g.RefCounts()
	decisions := make(map[int]decision)
	var litBuf [6]aig.Lit

	for id := g.NumPIs() + 1; id < g.NumObjs(); id++ {
		if refs[id] == 0 {
			continue // dangling: rebuild drops it anyway
		}
		bestGain := 0
		var best decision
		haveBest := false
		for _, cut := range cuts[id] {
			if len(cut.Leaves) < 2 || (len(cut.Leaves) == 1 && cut.Leaves[0] == id) {
				continue
			}
			saved := g.MFFCSizeBounded(id, refs, cut.Leaves)
			if saved <= 0 {
				continue
			}
			f := g.CutTT(id, cut.Leaves)
			// Drop leaves outside the true support so the library sees
			// the compacted function.
			leaves, cf := compactCut(cut.Leaves, f)
			var dec decision
			var cost int
			switch {
			case cf.IsConst0():
				dec = constDecision(false)
				cost = 0
			case cf.IsConst1():
				dec = constDecision(true)
				cost = 0
			case len(leaves) == 1:
				// Function of a single leaf: identity or complement.
				compl := cf.Equal(tt.Var(0, 1).Not())
				dec = litDecision(leaves[0], compl)
				cost = 0
			default:
				mini := synth.LibraryStructure(cf)
				blocked := g.MFFCNodesBounded(id, refs, cut.Leaves)
				cost = synth.InstantiateCostBlocked(g, mini, oldLeafLits(litBuf[:0], leaves), blocked)
				dec = decision{mini: mini, leaves: leaves}
			}
			gain := saved - cost
			if gain > bestGain || (opts.ZeroCost && !haveBest && gain == bestGain) {
				bestGain = gain
				best = dec
				haveBest = true
			}
		}
		if haveBest {
			decisions[id] = best
		}
	}
	// Gain accounting is an estimate (overlapping MFFCs, sharing with the
	// not-yet-rebuilt fanout logic); never return a larger graph.
	return keepSmaller(g, rebuild(g, decisions), true)
}

// Rewrite iterates rewriting passes until the AND count stops improving.
func Rewrite(g *aig.AIG, opts RewriteOptions) *aig.AIG {
	cur := g
	for i := 0; i < 12; i++ {
		next := RewriteOnce(cur, opts)
		if next.NumAnds() >= cur.NumAnds() {
			return keepSmaller(cur, next, opts.ZeroCost)
		}
		cur = next
	}
	return cur
}

// compactCut removes cut leaves the function does not depend on and
// shrinks the truth table accordingly.
func compactCut(leaves []int, f tt.TT) ([]int, tt.TT) {
	if f.SupportSize() == len(leaves) {
		return leaves, f
	}
	support := f.Support()
	kept := make([]int, len(support))
	perm := make([]int, 0, f.NumVars())
	for i, v := range support {
		kept[i] = leaves[v]
		perm = append(perm, v)
	}
	// Route support variable v to position i, dead variables to the tail.
	for v := 0; v < f.NumVars(); v++ {
		if !slices.Contains(support, v) {
			perm = append(perm, v)
		}
	}
	g := f.Permute(perm)
	if len(support) == 0 {
		return nil, g.Shrink(0)
	}
	return kept, g.Shrink(len(support))
}

// constDecision replaces a node by a constant.
func constDecision(v bool) decision {
	mini := aig.New(0)
	mini.AddPO(aig.LitFalse.NotCond(v))
	return decision{mini: mini, leaves: nil}
}
