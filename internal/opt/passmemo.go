package opt

import (
	"context"
	"sync"

	"repro/internal/aig"
	"repro/internal/telemetry"
)

// PassMemo remembers the results of the rewrite, refactor, resub and
// balance passes so that a pass already run on a graph is not run again
// on an identical one. The flows of one harness spec repeat many such
// calls: orchestration tries every operator and keeps one result, dc2 and
// deepsyn both start from DC2 of the same graph, convergence loops rerun
// passes on graphs that have stopped changing, and different recipes
// converge to the same intermediate graphs.
//
// A result is reused only for an input that aig.SameStructure confirms
// is identical to the one it was computed from, never on a hash match
// alone, so results are bit-identical to running the pass. Entries are
// shared read-only, like every graph the passes and flows are given.
// There is no cap: a memo lives as long as the context it is attached to
// (one spec in the harness), so it holds at most that scope's graphs.
//
// The zero value is an empty memo, and the methods are safe for
// concurrent use. A nil *PassMemo runs every pass directly.
type PassMemo struct {
	mu      sync.Mutex
	entries map[passKey][]passEntry
}

// passKey names one pass call: the input's aig.StructHash, the pass and
// its options value (a comparable options struct, or nil for balance).
type passKey struct {
	hash uint64
	pass string
	opts any
}

type passEntry struct{ in, out *aig.AIG }

type passMemoKey struct{}

// WithPassMemo returns a copy of ctx carrying a fresh PassMemo, which
// Orchestrate, DC2Converge and DeepSyn run under it use for their passes.
func WithPassMemo(ctx context.Context) context.Context {
	return context.WithValue(ctx, passMemoKey{}, &PassMemo{})
}

// passMemoFrom returns the memo attached to ctx, or nil.
func passMemoFrom(ctx context.Context) *PassMemo {
	m, _ := ctx.Value(passMemoKey{}).(*PassMemo)
	return m
}

// run returns pass(g), from the memo when an identical input has already
// been through this pass with these options. hits is the pass's fixed
// memo-hit counter name.
func (m *PassMemo) run(name, hits string, opts any, g *aig.AIG, pass func(*aig.AIG) *aig.AIG) *aig.AIG {
	if m == nil {
		return pass(g)
	}
	key := passKey{hash: g.StructHash(), pass: name, opts: opts}
	m.mu.Lock()
	for _, e := range m.entries[key] {
		if aig.SameStructure(e.in, g) {
			m.mu.Unlock()
			telemetry.Add(hits, 1)
			if e.out == e.in {
				return g // the pass returned its input; so does this call
			}
			return e.out
		}
	}
	m.mu.Unlock()
	out := pass(g)
	m.mu.Lock()
	if m.entries == nil {
		m.entries = make(map[passKey][]passEntry)
	}
	m.entries[key] = append(m.entries[key], passEntry{in: g, out: out})
	m.mu.Unlock()
	return out
}

// RewriteOnce is RewriteOnce through the memo.
func (m *PassMemo) RewriteOnce(g *aig.AIG, opts RewriteOptions) *aig.AIG {
	return m.run("rewrite", "opt/rewrite/memo_hits", opts, g, func(g *aig.AIG) *aig.AIG { return RewriteOnce(g, opts) })
}

// RefactorOnce is RefactorOnce through the memo.
func (m *PassMemo) RefactorOnce(g *aig.AIG, opts RefactorOptions) *aig.AIG {
	return m.run("refactor", "opt/refactor/memo_hits", opts, g, func(g *aig.AIG) *aig.AIG { return RefactorOnce(g, opts) })
}

// ResubOnce is ResubOnce through the memo.
func (m *PassMemo) ResubOnce(g *aig.AIG, opts ResubOptions) *aig.AIG {
	return m.run("resub", "opt/resub/memo_hits", opts, g, func(g *aig.AIG) *aig.AIG { return ResubOnce(g, opts) })
}

// Balance is Balance through the memo.
func (m *PassMemo) Balance(g *aig.AIG) *aig.AIG {
	return m.run("balance", "opt/balance/memo_hits", nil, g, Balance)
}
