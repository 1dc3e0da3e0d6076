package opt

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/aig"
	"repro/internal/lutmap"
	"repro/internal/telemetry"
)

// Flow is a named high-effort optimization flow. Seed feeds any
// randomized components (only DeepSyn uses it). RunCtx honors
// cancellation at convergence-loop granularity: when the context is
// done, the flow stops iterating and returns the best AIG found so
// far, which is always functionally equivalent to the input.
type Flow struct {
	Name        string
	Description string
	RunCtx      func(ctx context.Context, g *aig.AIG, seed int64) *aig.AIG
}

// Run executes the flow without cancellation.
func (f Flow) Run(g *aig.AIG, seed int64) *aig.AIG {
	//lint:ignore ctxflow compatibility wrapper whose documented contract is "without cancellation"; cancelable callers use RunCtx
	return f.RunCtx(context.Background(), g, seed)
}

// Flows returns the paper's three high-effort flows in canonical order.
// Each flow's RunCtx is telemetry-instrumented under "flow/<name>".
func Flows() []Flow {
	return []Flow{
		{"orchestrate", "per-round best of rewrite/refactor/resub to convergence",
			instrumentFlow("orchestrate", func(ctx context.Context, g *aig.AIG, _ int64) *aig.AIG { return Orchestrate(ctx, g, 24) })},
		{"dc2", "the classic balance/rewrite/refactor script, iterated to convergence",
			instrumentFlow("dc2", func(ctx context.Context, g *aig.AIG, _ int64) *aig.AIG { return DC2Converge(ctx, g) })},
		{"deepsyn", "randomized flow search with LUT-mapping shake-ups (T=10)",
			instrumentFlow("deepsyn", func(ctx context.Context, g *aig.AIG, seed int64) *aig.AIG {
				return DeepSyn(ctx, g, DeepSynOptions{Effort: 10, Seed: seed})
			})},
	}
}

// RunFlow executes the named flow without cancellation.
func RunFlow(name string, g *aig.AIG, seed int64) (*aig.AIG, error) {
	//lint:ignore ctxflow compatibility wrapper whose documented contract is "without cancellation"; cancelable callers use RunFlowContext
	return RunFlowContext(context.Background(), name, g, seed)
}

// RunFlowContext executes the named flow under the context: when ctx is
// cancelled or times out, the flow returns its best equivalent AIG so
// far instead of iterating to convergence.
func RunFlowContext(ctx context.Context, name string, g *aig.AIG, seed int64) (*aig.AIG, error) {
	for _, f := range Flows() {
		if f.Name == name {
			return f.RunCtx(ctx, g, seed), nil
		}
	}
	return nil, fmt.Errorf("opt: unknown flow %q", name)
}

// Orchestrate reproduces the orchestration idea of Li et al. (TCAD'24) at
// pass granularity: each round tries resubstitution first (the operator
// the paper reports orchestration favoring heavily), then rewriting and
// refactoring, and commits the round's best reduction, so the operator
// mix adapts to the circuit. Rounds stop at convergence, after
// maxRounds, or when ctx is done (returning the best AIG so far). Passes
// go through the PassMemo attached to ctx, if any.
func Orchestrate(ctx context.Context, g *aig.AIG, maxRounds int) *aig.AIG {
	m := passMemoFrom(ctx)
	cur := g
	for round := 0; round < maxRounds; round++ {
		if ctx.Err() != nil {
			return cur
		}
		telemetry.Add("flow/orchestrate/rounds", 1)
		// Resubstitution gets the first shot and is kept whenever it
		// makes progress; the structural operators compete otherwise.
		rs := m.ResubOnce(cur, ResubOptions{MaxDivisors: 150})
		if rs.NumAnds() < cur.NumAnds() {
			cur = rs
			continue
		}
		candidates := []*aig.AIG{
			m.RewriteOnce(cur, RewriteOptions{}),
			m.RefactorOnce(cur, RefactorOptions{}),
		}
		best := cur
		for _, c := range candidates {
			if c.NumAnds() < best.NumAnds() {
				best = c
			}
		}
		if best == cur {
			// Plateau: reshape with balancing and zero-cost rewriting to
			// expose new cuts; if still stuck, escape the local minimum
			// with a LUT map/resynthesis round trip before giving up.
			shaken := m.ResubOnce(m.RewriteOnce(m.Balance(cur), RewriteOptions{ZeroCost: true}), ResubOptions{})
			shaken = m.RefactorOnce(shaken, RefactorOptions{})
			if shaken.NumAnds() < cur.NumAnds() {
				cur = shaken
				continue
			}
			escaped := m.DC2(lutmap.RoundTrip(cur, lutmap.Options{K: 6}))
			if escaped.NumAnds() < cur.NumAnds() {
				cur = escaped
				continue
			}
			return cur
		}
		cur = best
	}
	return cur
}

// DC2Converge iterates the dc2 script until the AND count stops
// improving — the "high-effort" usage of dc2 in practice — or ctx is
// done. Passes go through the PassMemo attached to ctx, if any.
func DC2Converge(ctx context.Context, g *aig.AIG) *aig.AIG {
	m := passMemoFrom(ctx)
	cur := g
	for i := 0; i < 8; i++ {
		if ctx.Err() != nil {
			return cur
		}
		telemetry.Add("flow/dc2/iterations", 1)
		next := m.DC2(cur)
		if next.NumAnds() >= cur.NumAnds() {
			return cur
		}
		cur = next
	}
	return cur
}

// DC2 runs the classic ABC dc2 script: b; rw; rf; b; rw; rwz; b; rfz;
// rwz; b.
func DC2(g *aig.AIG) *aig.AIG {
	return (*PassMemo)(nil).DC2(g)
}

// DC2 is DC2 with every pass through the memo.
func (m *PassMemo) DC2(g *aig.AIG) *aig.AIG {
	cur := m.Balance(g)
	cur = m.RewriteOnce(cur, RewriteOptions{})
	cur = m.RefactorOnce(cur, RefactorOptions{})
	cur = m.Balance(cur)
	cur = m.RewriteOnce(cur, RewriteOptions{})
	cur = m.RewriteOnce(cur, RewriteOptions{ZeroCost: true})
	cur = m.Balance(cur)
	cur = m.RefactorOnce(cur, RefactorOptions{ZeroCost: true})
	cur = m.RewriteOnce(cur, RewriteOptions{ZeroCost: true})
	cur = m.Balance(cur)
	return keepSmaller(g, cur, true)
}

// DeepSynOptions tunes the randomized DeepSyn flow.
type DeepSynOptions struct {
	// Effort is the iteration budget (the paper's -T 10 analogue).
	Effort int
	// Seed drives move selection.
	Seed int64
}

// DeepSyn emulates &deepsyn: a randomized on-the-fly search over
// transformation sequences. Each iteration applies a randomly chosen move
// — a dc2 round, a k-LUT map/resynthesis round trip (the broad
// restructuring move), or operator combinations — keeping the best AIG
// seen and restarting from it when the working copy drifts too far.
// When ctx is done, the search stops and returns the best AIG so far.
// Passes go through the PassMemo attached to ctx, if any.
func DeepSyn(ctx context.Context, g *aig.AIG, opts DeepSynOptions) *aig.AIG {
	effort := opts.Effort
	if effort <= 0 {
		effort = 10
	}
	m := passMemoFrom(ctx)
	r := rand.New(rand.NewSource(opts.Seed))
	best := g
	cur := g
	moves := []func(*aig.AIG) *aig.AIG{
		m.DC2,
		func(a *aig.AIG) *aig.AIG { return lutmap.RoundTrip(a, lutmap.Options{K: 4}) },
		func(a *aig.AIG) *aig.AIG { return lutmap.RoundTrip(a, lutmap.Options{K: 6}) },
		func(a *aig.AIG) *aig.AIG {
			return m.ResubOnce(m.RewriteOnce(a, RewriteOptions{ZeroCost: true}), ResubOptions{})
		},
		func(a *aig.AIG) *aig.AIG {
			return m.RefactorOnce(m.ResubOnce(a, ResubOptions{ZeroCost: true}), RefactorOptions{})
		},
		func(a *aig.AIG) *aig.AIG { return m.Balance(m.RewriteOnce(a, RewriteOptions{})) },
	}
	for i := 0; i < effort; i++ {
		if ctx.Err() != nil {
			return best
		}
		telemetry.Add("flow/deepsyn/moves", 1)
		move := moves[r.Intn(len(moves))]
		cur = move(cur)
		if cur.NumAnds() < best.NumAnds() {
			best = cur
		}
		// Restart from the best when the working copy has drifted.
		if float64(cur.NumAnds()) > 1.25*float64(best.NumAnds())+4 {
			cur = best
		}
	}
	return best
}

// CompressToConvergence interleaves all operators until no further
// reduction is found — a convenience "max effort" flow exposed by the
// library beyond the paper's three. It honors ctx at iteration
// granularity.
func CompressToConvergence(ctx context.Context, g *aig.AIG) *aig.AIG {
	cur := g
	for i := 0; i < 32; i++ {
		if ctx.Err() != nil {
			return cur
		}
		next := DC2(cur)
		next = ResubOnce(next, ResubOptions{})
		next = RefactorOnce(next, RefactorOptions{})
		if next.NumAnds() >= cur.NumAnds() {
			return cur
		}
		cur = next
	}
	return cur
}
