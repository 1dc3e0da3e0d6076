// Package opt implements the AIG optimization algorithms of the paper's
// experimental substrate: DAG-aware rewriting, refactoring, resubstitution
// and balancing, plus the three high-effort flows used in the evaluation
// (Orchestrate, DC2, DeepSyn).
//
// All passes follow a select-then-rebuild architecture: candidate
// replacements are selected on the current graph with MFFC-based gain
// accounting, then a demand-driven rebuild materializes only the logic
// reachable from the outputs, dropping the fanout-free cones of replaced
// nodes. Every pass preserves functional equivalence by construction
// (replacement structures implement the exact cut function); the test
// suite additionally verifies equivalence by exhaustive simulation after
// every pass.
package opt

import (
	"repro/internal/aig"
	"repro/internal/synth"
)

// decision records a chosen replacement for an AND node of the old graph:
// a single-output structure over the functions of the given old-graph
// leaf nodes. The structure's output literal implements the node's plain
// (non-complemented) function.
type decision struct {
	mini   *aig.AIG
	leaves []int
}

// litDecision builds a decision replacing a node by a literal of another
// old-graph node (possibly complemented) — the 0-resubstitution shape.
func litDecision(node int, compl bool) decision {
	mini := aig.New(1)
	mini.AddPO(mini.PI(0).NotCond(compl))
	return decision{mini: mini, leaves: []int{node}}
}

// unmapped marks not-yet-rebuilt nodes during rebuild.
const unmapped = aig.Lit(0xFFFFFFFF)

// rebuild constructs a new AIG implementing the same outputs as g,
// materializing only the logic reachable from the POs and splicing in the
// per-node decisions. The invariant maintained is that the literal mapped
// for old node id implements exactly the function of node id.
func rebuild(g *aig.AIG, decisions map[int]decision) *aig.AIG {
	ng := aig.New(g.NumPIs())
	copyNames(g, ng)
	m := make([]aig.Lit, g.NumObjs())
	for i := range m {
		m[i] = unmapped
	}
	m[0] = aig.LitFalse
	for i := 1; i <= g.NumPIs(); i++ {
		m[i] = aig.MakeLit(i, false)
	}
	var build func(id int) aig.Lit
	build = func(id int) aig.Lit {
		if m[id] != unmapped {
			return m[id]
		}
		if dec, ok := decisions[id]; ok {
			leafLits := make([]aig.Lit, len(dec.leaves))
			for i, leaf := range dec.leaves {
				leafLits[i] = build(leaf)
			}
			l := synth.Instantiate(ng, dec.mini, leafLits)
			m[id] = l
			return l
		}
		f0, f1 := g.Fanins(id)
		a := build(f0.Node()).NotCond(f0.IsCompl())
		b := build(f1.Node()).NotCond(f1.IsCompl())
		l := ng.And(a, b)
		m[id] = l
		return l
	}
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		ng.AddPO(build(po.Node()).NotCond(po.IsCompl()))
	}
	return ng
}

func copyNames(from, to *aig.AIG) {
	for i := 0; i < from.NumPIs(); i++ {
		if n := from.PIName(i); n != "" {
			to.SetPIName(i, n)
		}
	}
	for i := 0; i < from.NumPOs(); i++ {
		if n := from.POName(i); n != "" {
			to.SetPOName(i, n)
		}
	}
}

// oldLeafLits appends old-graph node ids to dst as plain literals for
// cost estimation against the old graph.
func oldLeafLits(dst []aig.Lit, leaves []int) []aig.Lit {
	for _, id := range leaves {
		dst = append(dst, aig.MakeLit(id, false))
	}
	return dst
}

// keepSmaller returns the candidate when it improves on (or, when
// allowEqual, matches) the incumbent's AND count, else the incumbent.
func keepSmaller(old, candidate *aig.AIG, allowEqual bool) *aig.AIG {
	if candidate.NumAnds() < old.NumAnds() || (allowEqual && candidate.NumAnds() == old.NumAnds()) {
		return candidate
	}
	return old
}
