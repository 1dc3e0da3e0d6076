package tt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVarProjection(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for v := 0; v < n; v++ {
			x := Var(v, n)
			for m := 0; m < 1<<n; m++ {
				want := m>>uint(v)&1 == 1
				if x.Bit(m) != want {
					t.Fatalf("Var(%d,%d).Bit(%d) = %v, want %v", v, n, m, x.Bit(m), want)
				}
			}
		}
	}
}

func TestConsts(t *testing.T) {
	for n := 0; n <= 8; n++ {
		if !Const(n, false).IsConst0() {
			t.Errorf("Const(%d,false) not const0", n)
		}
		if !Const(n, true).IsConst1() {
			t.Errorf("Const(%d,true) not const1", n)
		}
		if Const(n, true).IsConst0() || Const(n, false).IsConst1() {
			t.Errorf("n=%d: const confusion", n)
		}
		if got := Const(n, true).CountOnes(); got != 1<<n {
			t.Errorf("Const(%d,true).CountOnes() = %d, want %d", n, got, 1<<n)
		}
	}
}

func TestBooleanAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 1; n <= 8; n++ {
		a, b := Random(n, r), Random(n, r)
		for m := 0; m < 1<<n; m++ {
			if a.And(b).Bit(m) != (a.Bit(m) && b.Bit(m)) {
				t.Fatalf("n=%d And mismatch at %d", n, m)
			}
			if a.Or(b).Bit(m) != (a.Bit(m) || b.Bit(m)) {
				t.Fatalf("n=%d Or mismatch at %d", n, m)
			}
			if a.Xor(b).Bit(m) != (a.Bit(m) != b.Bit(m)) {
				t.Fatalf("n=%d Xor mismatch at %d", n, m)
			}
			if a.Not().Bit(m) != !a.Bit(m) {
				t.Fatalf("n=%d Not mismatch at %d", n, m)
			}
			if a.AndNot(b).Bit(m) != (a.Bit(m) && !b.Bit(m)) {
				t.Fatalf("n=%d AndNot mismatch at %d", n, m)
			}
		}
	}
}

func TestDeMorganProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(w0, w1 uint64) bool {
		a := FromWords(7, []uint64{w0, w1})
		b := FromWords(7, []uint64{w1, ^w0})
		return a.And(b).Not().Equal(a.Not().Or(b.Not()))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCofactorBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for n := 1; n <= 8; n++ {
		f := Random(n, r)
		for v := 0; v < n; v++ {
			c0, c1 := f.Cofactor(v, false), f.Cofactor(v, true)
			for m := 0; m < 1<<n; m++ {
				m0 := m &^ (1 << uint(v))
				m1 := m | 1<<uint(v)
				if c0.Bit(m) != f.Bit(m0) {
					t.Fatalf("n=%d v=%d: cofactor0 bit %d", n, v, m)
				}
				if c1.Bit(m) != f.Bit(m1) {
					t.Fatalf("n=%d v=%d: cofactor1 bit %d", n, v, m)
				}
			}
		}
	}
}

func TestShannonExpansion(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for n := 1; n <= 9; n++ {
		f := Random(n, r)
		for v := 0; v < n; v++ {
			x := Var(v, n)
			rebuilt := x.And(f.Cofactor(v, true)).Or(x.Not().And(f.Cofactor(v, false)))
			if !rebuilt.Equal(f) {
				t.Fatalf("n=%d v=%d: Shannon expansion broken", n, v)
			}
		}
	}
}

func TestSupport(t *testing.T) {
	n := 6
	f := Var(1, n).Xor(Var(4, n))
	sup := f.Support()
	if len(sup) != 2 || sup[0] != 1 || sup[1] != 4 {
		t.Errorf("Support = %v, want [1 4]", sup)
	}
	if Const(n, true).SupportSize() != 0 {
		t.Error("constant should have empty support")
	}
}

func TestFlipVar(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for n := 1; n <= 9; n++ {
		f := Random(n, r)
		for v := 0; v < n; v++ {
			g := f.FlipVar(v)
			for m := 0; m < 1<<n; m++ {
				if g.Bit(m) != f.Bit(m^(1<<uint(v))) {
					t.Fatalf("n=%d v=%d: FlipVar bit %d", n, v, m)
				}
			}
			if !g.FlipVar(v).Equal(f) {
				t.Fatalf("n=%d v=%d: FlipVar not involutive", n, v)
			}
		}
	}
}

func TestSwapAdjacentMatchesPermute(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for n := 2; n <= 9; n++ {
		f := Random(n, r)
		for v := 0; v+1 < n; v++ {
			perm := make([]int, n)
			for i := range perm {
				perm[i] = i
			}
			perm[v], perm[v+1] = perm[v+1], perm[v]
			a, b := f.SwapAdjacent(v), f.Permute(perm)
			if !a.Equal(b) {
				t.Fatalf("n=%d v=%d: SwapAdjacent disagrees with Permute", n, v)
			}
		}
	}
}

func TestPermuteSemantics(t *testing.T) {
	// f depends on variable 0 only; permuting 0->2 must move the
	// dependence to variable 2.
	n := 3
	f := Var(0, n)
	perm := []int{2, 0, 1} // original var perm[i] becomes var i: 0 -> position 1
	g := f.Permute(perm)
	if !g.Equal(Var(1, n)) {
		t.Errorf("Permute moved Var(0) to %v, want Var(1)", g.Support())
	}
}

func TestPermuteComposition(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	n := 6
	f := Random(n, r)
	perm := []int{3, 1, 5, 0, 2, 4}
	inv := make([]int, n)
	for i, p := range perm {
		inv[p] = i
	}
	if !f.Permute(perm).Permute(inv).Equal(f) {
		t.Error("Permute by perm then inverse is not identity")
	}
}

// permuteDefinition is Permute bit by bit: minterm m of the result reads
// the minterm of t whose bit perm[i] is bit i of m.
func permuteDefinition(t TT, perm []int) TT {
	r := New(t.NumVars())
	for m := 0; m < t.NumBits(); m++ {
		src := 0
		for i, p := range perm {
			src |= (m >> uint(i) & 1) << uint(p)
		}
		r.SetBit(m, t.Bit(src))
	}
	return r
}

func TestPermuteMatchesDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for n := 0; n <= 6; n++ {
		for _, perm := range permutations(n) {
			f := Random(n, r)
			if got, want := f.Permute(perm), permuteDefinition(f, perm); !got.Equal(want) {
				t.Fatalf("n=%d perm=%v: Permute(%s) = %s, want %s", n, perm, f.Hex(), got.Hex(), want.Hex())
			}
		}
	}
	for n := 7; n <= 8; n++ {
		for trial := 0; trial < 20; trial++ {
			f, perm := Random(n, r), r.Perm(n)
			if !f.Permute(perm).Equal(permuteDefinition(f, perm)) {
				t.Fatalf("n=%d perm=%v: Permute disagrees with its definition", n, perm)
			}
		}
	}
}

// TestHasVarMatchesCofactors pins HasVar and Support to the cofactor
// definition on both the single-word and the multi-word path.
func TestHasVarMatchesCofactors(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for n := 0; n <= 8; n++ {
		for trial := 0; trial < 200; trial++ {
			f := Random(n, r)
			if trial%4 == 0 && n > 0 {
				// Random tables depend on every variable; drop some.
				f = f.Cofactor(r.Intn(n), r.Intn(2) == 1)
			}
			var want []int
			for v := 0; v < n; v++ {
				dep := !f.Cofactor(v, false).Equal(f.Cofactor(v, true))
				if f.HasVar(v) != dep {
					t.Fatalf("n=%d: HasVar(%d) on %s = %v, want %v", n, v, f.Hex(), !dep, dep)
				}
				if dep {
					want = append(want, v)
				}
			}
			got := f.Support()
			if len(got) != len(want) {
				t.Fatalf("n=%d: Support(%s) = %v, want %v", n, f.Hex(), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d: Support(%s) = %v, want %v", n, f.Hex(), got, want)
				}
			}
		}
	}
}

func TestHasVarAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, n := range []int{4, 6, 9} {
		f := Random(n, r)
		if a := testing.AllocsPerRun(100, func() {
			for v := 0; v < n; v++ {
				f.HasVar(v)
			}
		}); a != 0 {
			t.Errorf("HasVar on %d variables: %v allocs, want 0", n, a)
		}
	}
}

func TestExpandShrink(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for n := 1; n <= 7; n++ {
		f := Random(n, r)
		for m := n; m <= 9; m++ {
			e := f.Expand(m)
			for i := n; i < m; i++ {
				if e.HasVar(i) {
					t.Fatalf("Expand(%d->%d) introduced dependence on %d", n, m, i)
				}
			}
			if !e.Shrink(n).Equal(f) {
				t.Fatalf("Expand(%d->%d) then Shrink is not identity", n, m)
			}
		}
	}
}

func TestHexRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for n := 2; n <= 9; n++ {
		f := Random(n, r)
		s := f.Hex()
		g, err := ParseHex(n, s)
		if err != nil {
			t.Fatalf("ParseHex(%d, %q): %v", n, s, err)
		}
		if !g.Equal(f) {
			t.Fatalf("hex round trip failed for n=%d", n)
		}
	}
	if _, err := ParseHex(4, "123"); err == nil {
		t.Error("short hex string should fail")
	}
	if _, err := ParseHex(4, "12g4"); err == nil {
		t.Error("invalid hex digit should fail")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	f, err := ParseBinary(2, "0110") // XOR
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(Var(0, 2).Xor(Var(1, 2))) {
		t.Error("ParseBinary(0110) is not XOR")
	}
	if f.String() != "0110" {
		t.Errorf("String() = %q", f.String())
	}
}

func TestKnownFunctions(t *testing.T) {
	// Majority-of-three: 0xE8.
	maj := Var(0, 3).And(Var(1, 3)).Or(Var(0, 3).And(Var(2, 3))).Or(Var(1, 3).And(Var(2, 3)))
	if maj.Hex() != "e8" {
		t.Errorf("maj3 hex = %q, want e8", maj.Hex())
	}
	// Full-adder sum: 3-input XOR = 0x96.
	sum := Var(0, 3).Xor(Var(1, 3)).Xor(Var(2, 3))
	if sum.Hex() != "96" {
		t.Errorf("xor3 hex = %q, want 96", sum.Hex())
	}
}

func TestCountOnes(t *testing.T) {
	f := Var(3, 7)
	if got := f.CountOnes(); got != 64 {
		t.Errorf("Var(3,7).CountOnes() = %d, want 64", got)
	}
}

func TestPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("New(17)", func() { New(17) })
	assertPanics("Var out of range", func() { Var(3, 3) })
	assertPanics("mixed sizes", func() { Var(0, 3).And(Var(0, 4)) })
	assertPanics("Shrink live var", func() { Var(3, 4).Shrink(3) })
	assertPanics("HasVar out of range", func() { Var(0, 3).HasVar(3) })
}
