package synth

import (
	"testing"

	"repro/internal/aig"
	"repro/internal/tt"
)

// countingMemo returns a memo whose build records how often it ran.
func countingMemo(builds *int) *Memo {
	return NewMemo(func(f tt.TT) *aig.AIG {
		*builds++
		return BestStructure(f)
	})
}

func TestMemoBuildsOncePerKey(t *testing.T) {
	builds := 0
	m := countingMemo(&builds)
	and := tt.Var(0, 2).And(tt.Var(1, 2))
	a := m.Get(and)
	if b := m.Get(and); b != a {
		t.Fatal("second lookup returned a different structure")
	}
	// The same word over more variables is another function.
	wide := tt.FromWords(3, and.Words())
	if m.Get(wide) == a {
		t.Fatal("functions over different variable counts shared an entry")
	}
	if builds != 2 || m.Len() != 2 {
		t.Fatalf("builds = %d, entries = %d; want 2 and 2", builds, m.Len())
	}
}

func TestMemoCapRestarts(t *testing.T) {
	builds := 0
	m := countingMemo(&builds)
	// Every 4-variable word below the cap's count is a distinct key.
	f := func(i int) tt.TT { return tt.FromWords(4, []uint64{uint64(i)}) }
	for i := 0; i < memoCap; i++ {
		m.Get(f(i))
	}
	if m.Len() != memoCap {
		t.Fatalf("entries = %d, want %d", m.Len(), memoCap)
	}
	m.Get(f(memoCap))
	if m.Len() != 1 {
		t.Fatalf("entries after the cap = %d, want a fresh memo with 1", m.Len())
	}
	// An evicted key is rebuilt, and the result is still correct.
	if got := m.Get(f(7)); !got.OutputTTs()[0].Equal(f(7)) {
		t.Fatal("rebuilt structure implements another function")
	}
	if builds != memoCap+2 {
		t.Fatalf("builds = %d, want %d", builds, memoCap+2)
	}
}

func TestMemoSkipsWideFunctions(t *testing.T) {
	builds := 0
	m := countingMemo(&builds)
	f := tt.Var(0, 7).Xor(tt.Var(6, 7))
	m.Get(f)
	m.Get(f)
	if builds != 2 || m.Len() != 0 {
		t.Fatalf("builds = %d, entries = %d; want 2 and 0", builds, m.Len())
	}
}
