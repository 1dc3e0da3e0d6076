package synth

import (
	"sync"

	"repro/internal/aig"
	"repro/internal/tt"
)

// memoCap bounds every Memo. A full memo is dropped and a fresh one
// started, so the resident set stays bounded however many passes or
// requests a process runs. 2048 sits above the per-pass working set of
// rewriting (4-input cuts) and refactoring (compacted cones of up to six
// inputs); a smaller cap measurably lowers their hit rates.
const memoCap = 2048

// Memo caches one structure per function of at most 6 variables, keyed
// by (variable count, truth-table word); wider functions are built fresh
// on every call. The build function must be a pure function of its
// argument, so an eviction can never change a result.
//
// Returned AIGs are shared between callers and goroutines, so they are
// stored frozen (aig.AIG.Frozen): read-only and about 40% smaller.
// Instantiate, InstantiateCost and InstantiateCostBlocked only read
// them; a caller that needs to modify one must Cleanup it into a copy.
type Memo struct {
	build func(tt.TT) *aig.AIG

	mu sync.Mutex
	m  map[[2]uint64]*aig.AIG
}

// NewMemo returns an empty memo over build.
func NewMemo(build func(tt.TT) *aig.AIG) *Memo {
	return &Memo{build: build}
}

// Get returns build(f), computing it at most once while f stays resident.
// Concurrent misses on one key may both build; either result is correct.
func (c *Memo) Get(f tt.TT) *aig.AIG {
	if f.NumVars() > 6 {
		return c.build(f)
	}
	k := [2]uint64{uint64(f.NumVars()), f.Words()[0]}
	c.mu.Lock()
	g, ok := c.m[k]
	c.mu.Unlock()
	if ok {
		return g
	}
	g = c.build(f).Frozen()
	c.mu.Lock()
	if c.m == nil || len(c.m) >= memoCap {
		c.m = make(map[[2]uint64]*aig.AIG)
	}
	c.m[k] = g
	c.mu.Unlock()
	return g
}

// Len reports how many structures the memo holds.
func (c *Memo) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
