package tt

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func randTransform(n int, r *rand.Rand) NPNTransform {
	perm := r.Perm(n)
	return NPNTransform{
		Perm:    perm,
		Flips:   uint32(r.Intn(1 << uint(n))),
		OutFlip: r.Intn(2) == 1,
	}
}

func TestNPNTransformInverse(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for n := 1; n <= 6; n++ {
		for trial := 0; trial < 30; trial++ {
			f := Random(n, r)
			x := randTransform(n, r)
			if !x.Inverse().Apply(x.Apply(f)).Equal(f) {
				t.Fatalf("n=%d trial=%d: inverse(apply) is not identity", n, trial)
			}
			if !x.Apply(x.Inverse().Apply(f)).Equal(f) {
				t.Fatalf("n=%d trial=%d: apply(inverse) is not identity", n, trial)
			}
		}
	}
}

func TestNPNCanonRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for n := 1; n <= 5; n++ {
		for trial := 0; trial < 20; trial++ {
			f := Random(n, r)
			canon, x := NPNCanon(f)
			if !x.Apply(f).Equal(canon) {
				t.Fatalf("n=%d: transform does not map f to canon", n)
			}
			if !x.Inverse().Apply(canon).Equal(f) {
				t.Fatalf("n=%d: inverse transform does not recover f", n)
			}
		}
	}
}

func TestNPNCanonInvariance(t *testing.T) {
	// All NPN-equivalent functions must share the canonical form.
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 3 + trial%2
		f := Random(n, r)
		canonF, _ := NPNCanon(f)
		for k := 0; k < 10; k++ {
			g := randTransform(n, r).Apply(f)
			canonG, _ := NPNCanon(g)
			if !canonF.Equal(canonG) {
				t.Fatalf("trial %d: NPN-equivalent functions map to different canons", trial)
			}
		}
	}
}

func TestNPNClassCount4(t *testing.T) {
	// The number of NPN classes of 4-variable functions is famously 222.
	classes := make(map[string]bool)
	for f := 0; f < 1<<16; f++ {
		fn := FromWords(4, []uint64{uint64(f)})
		canon, _ := NPNCanon(fn)
		classes[canon.Hex()] = true
	}
	if len(classes) != 222 {
		t.Errorf("found %d NPN classes of 4-var functions, want 222", len(classes))
	}
}

func TestNPNClassCount3(t *testing.T) {
	// 3-variable functions fall into 14 NPN classes.
	classes := make(map[string]bool)
	for f := 0; f < 1<<8; f++ {
		fn := FromWords(3, []uint64{uint64(f)})
		canon, _ := NPNCanon(fn)
		classes[canon.Hex()] = true
	}
	if len(classes) != 14 {
		t.Errorf("found %d NPN classes of 3-var functions, want 14", len(classes))
	}
}

// npnCanonReference is NPNCanon as first written: every candidate is a
// fresh TT built with FlipVar, Permute and Not. The word kernel must
// reproduce it exactly, transform included.
func npnCanonReference(t TT) (TT, NPNTransform) {
	n := t.NumVars()
	perms := permutations(n)
	best := TT{}
	var bestX NPNTransform
	have := false
	for flips := uint32(0); flips < 1<<uint(n); flips++ {
		flipped := t
		for v := 0; v < n; v++ {
			if flips>>uint(v)&1 == 1 {
				flipped = flipped.FlipVar(v)
			}
		}
		for _, perm := range perms {
			p := flipped.Permute(perm)
			for out := 0; out < 2; out++ {
				cand := p
				if out == 1 {
					cand = p.Not()
				}
				if !have || cand.Words()[0] < best.Words()[0] {
					best = cand
					bestX = NPNTransform{Perm: append([]int(nil), perm...), Flips: flips, OutFlip: out == 1}
					have = true
				}
			}
		}
	}
	return best, bestX
}

func sameNPN(t *testing.T, f TT) {
	t.Helper()
	canon, x := NPNCanon(f)
	rc, rx := npnCanonReference(f)
	if !canon.Equal(rc) || x.Flips != rx.Flips || x.OutFlip != rx.OutFlip || len(x.Perm) != len(rx.Perm) {
		t.Fatalf("NPNCanon(%s) = %s %+v, reference %s %+v", f.Hex(), canon.Hex(), x, rc.Hex(), rx)
	}
	for i := range x.Perm {
		if x.Perm[i] != rx.Perm[i] {
			t.Fatalf("NPNCanon(%s) perm %v, reference %v", f.Hex(), x.Perm, rx.Perm)
		}
	}
}

func TestNPNCanonMatchesReference(t *testing.T) {
	for n := 0; n <= 4; n++ {
		for f := uint64(0); f < 1<<(1<<uint(n)); f++ {
			sameNPN(t, FromWords(n, []uint64{f}))
		}
	}
	r := rand.New(rand.NewSource(24))
	for i := 0; i < 2000; i++ {
		sameNPN(t, Random(5+i%2, r))
	}
}

// TestNPNCanonConcurrent canonicalizes from eight goroutines at once; run
// under -race it checks that NPNCanon shares no mutable state.
func TestNPNCanonConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for gr := 0; gr < 8; gr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				f := Random(i%7, r)
				canon, x := NPNCanon(f)
				if !x.Apply(f).Equal(canon) {
					errs <- fmt.Sprintf("seed %d: transform does not map %s to its canon", seed, f.Hex())
					return
				}
			}
		}(int64(gr))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestNPNCanonAllocs(t *testing.T) {
	f := Random(4, rand.New(rand.NewSource(25)))
	if a := testing.AllocsPerRun(100, func() { NPNCanon(f) }); a > 2 {
		t.Errorf("NPNCanon on 4 variables: %v allocs, want <= 2", a)
	}
}
