package tt

import "fmt"

// NPNTransform records how a function was mapped to its NPN-canonical
// representative: first inputs are complemented according to Flips, then
// inputs are permuted (original variable Perm[i] becomes canonical
// variable i), and finally the output is complemented if OutFlip is set.
type NPNTransform struct {
	Perm    []int
	Flips   uint32 // bit v set: original input v complemented before permuting
	OutFlip bool
}

// Apply maps t to its image under the transform (the canonical form when
// the transform came from NPNCanon of t).
func (x NPNTransform) Apply(t TT) TT {
	r := t
	for v := 0; v < t.NumVars(); v++ {
		if x.Flips>>uint(v)&1 == 1 {
			r = r.FlipVar(v)
		}
	}
	r = r.Permute(x.Perm)
	if x.OutFlip {
		r = r.Not()
	}
	return r
}

// Inverse returns the transform mapping the canonical form back to the
// original function.
func (x NPNTransform) Inverse() NPNTransform {
	inv := NPNTransform{Perm: make([]int, len(x.Perm)), OutFlip: x.OutFlip}
	// x maps original var p=Perm[i] to canonical var i (after flipping
	// original inputs). The inverse permutes canonical var i back to p and
	// then flips, but since flips commute with renaming when re-indexed we
	// fold them: inverse flips act on canonical variable i when original
	// variable Perm[i] was flipped.
	for i, p := range x.Perm {
		inv.Perm[p] = i
		if x.Flips>>uint(p)&1 == 1 {
			inv.Flips |= 1 << uint(i)
		}
	}
	return inv
}

// permutations returns all permutations of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	var rec func(cur []int, used uint32)
	rec = func(cur []int, used uint32) {
		if len(cur) == n {
			cp := make([]int, n)
			copy(cp, cur)
			out = append(out, cp)
			return
		}
		for v := 0; v < n; v++ {
			if used>>uint(v)&1 == 0 {
				rec(append(cur, v), used|1<<uint(v))
			}
		}
	}
	rec(make([]int, 0, n), 0)
	return out
}

// permTable holds permutations(n) for every n NPNCanon accepts. It is
// built once at package init, so concurrent canonicalizations only read.
var permTable = func() (p [7][][]int) {
	for n := range p {
		p[n] = permutations(n)
	}
	return p
}()

// NPNCanon computes the NPN-canonical representative of t by exhaustive
// enumeration over input negations, input permutations, and output
// negation, choosing the lexicographically smallest truth table. It is
// intended for small functions (<= 6 variables; the 4-variable case used
// by rewriting enumerates 768 transforms). Every candidate is a single
// word, so the enumeration allocates nothing; ties keep the first
// candidate in flips x permutation x output order.
//
// The returned transform satisfies canon == transform.Apply(t) and
// t == transform.Inverse().Apply(canon).
func NPNCanon(t TT) (canon TT, transform NPNTransform) {
	n := t.NumVars()
	if n > 6 {
		panic(fmt.Sprintf("tt: NPNCanon limited to 6 variables, got %d", n))
	}
	top := topMask(n)
	w := t.words[0]
	var best uint64
	var bestPerm []int
	var bestFlips uint32
	bestOut, have := false, false

	for flips := uint32(0); flips < 1<<uint(n); flips++ {
		flipped := w
		for v := 0; v < n; v++ {
			if flips>>uint(v)&1 == 1 {
				flipped = flipWord(flipped, v)
			}
		}
		for _, perm := range permTable[n] {
			p := permuteWord(flipped, perm)
			for out := 0; out < 2; out++ {
				cand := p
				if out == 1 {
					cand = ^p & top
				}
				if !have || cand < best {
					best, bestPerm, bestFlips, bestOut = cand, perm, flips, out == 1
					have = true
				}
			}
		}
	}
	return FromWords(n, []uint64{best}),
		NPNTransform{Perm: append([]int(nil), bestPerm...), Flips: bestFlips, OutFlip: bestOut}
}
