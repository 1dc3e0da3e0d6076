// Package tt implements dense truth tables over up to 16 Boolean variables.
//
// A truth table stores one bit per input minterm, packed into 64-bit words
// in the conventional simulation order: bit m of the table is the function
// value on the assignment whose variable i takes bit i of m. Variable 0 is
// therefore the fastest-toggling input, exactly as in ABC and mockturtle.
//
// The package provides Boolean algebra, cofactoring, support analysis,
// irredundant sum-of-products extraction (Minato-Morreale ISOP), and NPN
// canonicalization, which together form the functional substrate for AIG
// synthesis and rewriting.
package tt

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// MaxVars is the largest supported number of variables.
const MaxVars = 16

// projections of the first six variables inside a single 64-bit word.
var varMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// TT is a truth table over a fixed number of variables. The zero value is
// not usable; construct with New, Var, Const, or a parser.
type TT struct {
	nvars int
	words []uint64
}

// WordCount returns the number of 64-bit words required for n variables.
func WordCount(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << (n - 6)
}

// New returns the constant-false table over n variables.
func New(n int) TT {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("tt: variable count %d out of range [0,%d]", n, MaxVars))
	}
	return TT{nvars: n, words: make([]uint64, WordCount(n))}
}

// Const returns the constant table (false or true) over n variables.
func Const(n int, v bool) TT {
	t := New(n)
	if v {
		for i := range t.words {
			t.words[i] = ^uint64(0)
		}
		t.maskTop()
	}
	return t
}

// Var returns the projection table of variable i over n variables.
func Var(i, n int) TT {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("tt: variable %d out of range for %d inputs", i, n))
	}
	t := New(n)
	if i < 6 {
		for w := range t.words {
			t.words[w] = varMasks[i]
		}
	} else {
		// Variable i toggles every 2^(i-6) words.
		period := 1 << (i - 6)
		for w := range t.words {
			if w&period != 0 {
				t.words[w] = ^uint64(0)
			}
		}
	}
	t.maskTop()
	return t
}

// FromWords builds a table over n variables from raw words (copied).
func FromWords(n int, words []uint64) TT {
	t := New(n)
	copy(t.words, words)
	t.maskTop()
	return t
}

// Random returns a uniformly random table over n variables drawn from r.
func Random(n int, r *rand.Rand) TT {
	t := New(n)
	for i := range t.words {
		t.words[i] = r.Uint64()
	}
	t.maskTop()
	return t
}

// maskTop clears the unused high bits of the single word when nvars < 6.
func (t *TT) maskTop() {
	if t.nvars < 6 {
		t.words[0] &= (uint64(1) << (1 << t.nvars)) - 1
	}
}

// topMask returns the valid-bit mask for the (single-word) table.
func topMask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << n)) - 1
}

// flipWord is FlipVar(v) on one word, for v < 6.
func flipWord(w uint64, v int) uint64 {
	shift := uint(1) << v
	mask := varMasks[v]
	return (w&mask)>>shift | (w&^mask)<<shift
}

// permuteWord is Permute on a single-word table over len(perm) variables.
// It realizes perm as a sequence of adjacent variable swaps (at most 15
// for six variables): position i receives original variable perm[i] by
// bubbling it down from wherever earlier swaps left it.
func permuteWord(w uint64, perm []int) uint64 {
	var at [6]int // at[i]: the original variable now at position i
	for i := range perm {
		at[i] = i
	}
	for i, p := range perm {
		j := i
		for at[j] != p {
			j++
		}
		for ; j > i; j-- {
			w = swapWord(w, j-1)
			at[j-1], at[j] = at[j], at[j-1]
		}
	}
	return w
}

// swapWord is SwapAdjacent(v) on one word, for v+1 < 6.
func swapWord(w uint64, v int) uint64 {
	shift := uint(1) << v
	lo := varMasks[v] &^ varMasks[v+1] // v=1, v+1=0 bits
	hi := varMasks[v+1] &^ varMasks[v] // v=0, v+1=1 bits
	return w&^(lo|hi) | (w&lo)<<shift | (w&hi)>>shift
}

// NumVars returns the number of variables of the table.
func (t TT) NumVars() int { return t.nvars }

// NumBits returns the number of minterm bits (2^nvars).
func (t TT) NumBits() int { return 1 << t.nvars }

// Words returns the backing words (not copied); callers must not modify.
func (t TT) Words() []uint64 { return t.words }

// Clone returns a deep copy of t.
func (t TT) Clone() TT {
	u := TT{nvars: t.nvars, words: make([]uint64, len(t.words))}
	copy(u.words, t.words)
	return u
}

// Bit reports the function value on minterm m.
func (t TT) Bit(m int) bool {
	return t.words[m>>6]>>(uint(m)&63)&1 == 1
}

// SetBit sets the function value on minterm m.
func (t *TT) SetBit(m int, v bool) {
	if v {
		t.words[m>>6] |= 1 << (uint(m) & 63)
	} else {
		t.words[m>>6] &^= 1 << (uint(m) & 63)
	}
}

func (t TT) check(u TT) {
	if t.nvars != u.nvars {
		panic(fmt.Sprintf("tt: mixing tables over %d and %d variables", t.nvars, u.nvars))
	}
}

// And returns t AND u.
func (t TT) And(u TT) TT {
	t.check(u)
	r := New(t.nvars)
	for i := range r.words {
		r.words[i] = t.words[i] & u.words[i]
	}
	return r
}

// Or returns t OR u.
func (t TT) Or(u TT) TT {
	t.check(u)
	r := New(t.nvars)
	for i := range r.words {
		r.words[i] = t.words[i] | u.words[i]
	}
	return r
}

// Xor returns t XOR u.
func (t TT) Xor(u TT) TT {
	t.check(u)
	r := New(t.nvars)
	for i := range r.words {
		r.words[i] = t.words[i] ^ u.words[i]
	}
	return r
}

// AndNot returns t AND NOT u.
func (t TT) AndNot(u TT) TT {
	t.check(u)
	r := New(t.nvars)
	for i := range r.words {
		r.words[i] = t.words[i] &^ u.words[i]
	}
	return r
}

// Not returns the complement of t.
func (t TT) Not() TT {
	r := New(t.nvars)
	for i := range r.words {
		r.words[i] = ^t.words[i]
	}
	r.maskTop()
	return r
}

// Equal reports whether t and u denote the same function.
func (t TT) Equal(u TT) bool {
	if t.nvars != u.nvars {
		return false
	}
	for i := range t.words {
		if t.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// IsConst0 reports whether t is the constant-false function.
func (t TT) IsConst0() bool {
	for _, w := range t.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsConst1 reports whether t is the constant-true function.
func (t TT) IsConst1() bool {
	m := topMask(t.nvars)
	for i, w := range t.words {
		want := ^uint64(0)
		if i == 0 && len(t.words) == 1 {
			want = m
		}
		if w != want {
			return false
		}
	}
	return true
}

// CountOnes returns the number of satisfying minterms.
func (t TT) CountOnes() int {
	n := 0
	for _, w := range t.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Cofactor returns the cofactor of t with variable v fixed to value val.
// The result remains a table over the same variable count; variable v
// becomes irrelevant in it.
func (t TT) Cofactor(v int, val bool) TT {
	if v < 0 || v >= t.nvars {
		panic(fmt.Sprintf("tt: cofactor variable %d out of range", v))
	}
	r := t.Clone()
	if v < 6 {
		shift := uint(1) << v
		mask := varMasks[v]
		for i, w := range r.words {
			if val {
				hi := w & mask
				r.words[i] = hi | hi>>shift
			} else {
				lo := w &^ mask
				r.words[i] = lo | lo<<shift
			}
		}
	} else {
		period := 1 << (v - 6)
		for base := 0; base < len(r.words); base += 2 * period {
			for k := 0; k < period; k++ {
				if val {
					r.words[base+k] = r.words[base+period+k]
				} else {
					r.words[base+period+k] = r.words[base+k]
				}
			}
		}
	}
	return r
}

// HasVar reports whether the function depends on variable v: whether
// some minterm with v clear differs from its partner with v set. It
// compares words in place and allocates nothing.
func (t TT) HasVar(v int) bool {
	if v < 0 || v >= t.nvars {
		panic(fmt.Sprintf("tt: variable %d out of range for %d inputs", v, t.nvars))
	}
	if v < 6 {
		// Partners sit 2^v bits apart inside each word.
		shift := uint(1) << v
		for _, w := range t.words {
			if (w>>shift^w)&^varMasks[v] != 0 {
				return true
			}
		}
		return false
	}
	// Partners sit 2^(v-6) words apart.
	period := 1 << (v - 6)
	for base := 0; base < len(t.words); base += 2 * period {
		for k := 0; k < period; k++ {
			if t.words[base+k] != t.words[base+period+k] {
				return true
			}
		}
	}
	return false
}

// Support returns the indices of variables the function depends on.
func (t TT) Support() []int {
	s := make([]int, 0, t.nvars)
	for v := 0; v < t.nvars; v++ {
		if t.HasVar(v) {
			s = append(s, v)
		}
	}
	return s
}

// SupportSize returns the number of variables the function depends on.
func (t TT) SupportSize() int {
	n := 0
	for v := 0; v < t.nvars; v++ {
		if t.HasVar(v) {
			n++
		}
	}
	return n
}

// FlipVar returns the table with variable v complemented.
func (t TT) FlipVar(v int) TT {
	if v < 0 || v >= t.nvars {
		panic(fmt.Sprintf("tt: flip variable %d out of range", v))
	}
	r := t.Clone()
	if v < 6 {
		for i, w := range r.words {
			r.words[i] = flipWord(w, v)
		}
	} else {
		period := 1 << (v - 6)
		for base := 0; base < len(r.words); base += 2 * period {
			for k := 0; k < period; k++ {
				r.words[base+k], r.words[base+period+k] = r.words[base+period+k], r.words[base+k]
			}
		}
	}
	return r
}

// SwapAdjacent returns the table with adjacent variables v and v+1 swapped.
func (t TT) SwapAdjacent(v int) TT {
	if v < 0 || v+1 >= t.nvars {
		panic(fmt.Sprintf("tt: swap variable %d out of range", v))
	}
	r := t.Clone()
	switch {
	case v+1 < 6:
		// Both variables live inside each word.
		for i, w := range r.words {
			r.words[i] = swapWord(w, v)
		}
	case v >= 6:
		// Both variables select word indices.
		pv, pw := 1<<(v-6), 1<<(v+1-6)
		for i := range r.words {
			// Swap words where bit for v is set and bit for v+1 clear
			// with the word where v clear and v+1 set.
			if i&pv != 0 && i&pw == 0 {
				j := i&^pv | pw
				r.words[i], r.words[j] = r.words[j], r.words[i]
			}
		}
	default:
		// v == 5, v+1 == 6: variable 5 is the word's high half,
		// variable 6 selects odd/even words.
		for i := 0; i < len(r.words); i += 2 {
			lo, hi := r.words[i], r.words[i+1]
			r.words[i] = lo&0x00000000FFFFFFFF | hi<<32
			r.words[i+1] = hi&0xFFFFFFFF00000000 | lo>>32
		}
	}
	return r
}

// Permute returns the table with original variable perm[i] renamed to
// variable i: the result depends on its input i exactly as t depends on
// input perm[i]. perm must be a permutation of 0..n-1.
func (t TT) Permute(perm []int) TT {
	if len(perm) != t.nvars {
		panic("tt: permutation length mismatch")
	}
	if t.nvars <= 6 {
		return FromWords(t.nvars, []uint64{permuteWord(t.words[0], perm)})
	}
	r := New(t.nvars)
	for m := 0; m < t.NumBits(); m++ {
		// Map minterm m of the result to the corresponding minterm of t:
		// bit perm[i] of the source equals bit i of m.
		src := 0
		for i, p := range perm {
			if m>>uint(i)&1 == 1 {
				src |= 1 << uint(p)
			}
		}
		if t.Bit(src) {
			r.SetBit(m, true)
		}
	}
	return r
}

// Expand returns an equivalent table over m >= t.nvars variables; the new
// variables are don't-cares.
func (t TT) Expand(m int) TT {
	if m < t.nvars {
		panic("tt: cannot shrink variable count with Expand")
	}
	if m == t.nvars {
		return t.Clone()
	}
	r := New(m)
	if t.nvars >= 6 {
		for i := range r.words {
			r.words[i] = t.words[i%len(t.words)]
		}
		return r
	}
	// Replicate the sub-word pattern across the word, then across words.
	w := t.words[0]
	span := 1 << t.nvars
	for span < 64 {
		w |= w << uint(span)
		span <<= 1
	}
	for i := range r.words {
		r.words[i] = w
	}
	r.maskTop()
	return r
}

// Shrink returns the same function expressed over exactly m variables,
// which must include the full support of t (variables >= m must be
// don't-cares).
func (t TT) Shrink(m int) TT {
	if m > t.nvars {
		panic("tt: Shrink target larger than table")
	}
	for v := m; v < t.nvars; v++ {
		if t.HasVar(v) {
			panic(fmt.Sprintf("tt: Shrink would drop live variable %d", v))
		}
	}
	r := New(m)
	for i := 0; i < 1<<m; i++ {
		r.SetBit(i, t.Bit(i))
	}
	return r
}

// String renders the table as a binary string, minterm 2^n-1 first
// (the conventional hex/binary truth-table order).
func (t TT) String() string {
	var b strings.Builder
	for m := t.NumBits() - 1; m >= 0; m-- {
		if t.Bit(m) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Hex renders the table as a hexadecimal string, most significant nibble
// first. Tables with fewer than two variables are padded to one nibble.
func (t TT) Hex() string {
	nibbles := t.NumBits() / 4
	if nibbles == 0 {
		nibbles = 1
	}
	var b strings.Builder
	for i := nibbles - 1; i >= 0; i-- {
		nib := t.words[i/16] >> (uint(i%16) * 4) & 0xF
		b.WriteByte("0123456789abcdef"[nib])
	}
	return b.String()
}

// ParseHex parses a hexadecimal truth-table string for n variables as
// produced by Hex.
func ParseHex(n int, s string) (TT, error) {
	t := New(n)
	nibbles := t.NumBits() / 4
	if nibbles == 0 {
		nibbles = 1
	}
	if len(s) != nibbles {
		return TT{}, fmt.Errorf("tt: hex string %q has %d nibbles, want %d for %d vars", s, len(s), nibbles, n)
	}
	for i := 0; i < nibbles; i++ {
		c := s[nibbles-1-i]
		var v uint64
		switch {
		case c >= '0' && c <= '9':
			v = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v = uint64(c-'A') + 10
		default:
			return TT{}, fmt.Errorf("tt: invalid hex digit %q", c)
		}
		t.words[i/16] |= v << (uint(i%16) * 4)
	}
	t.maskTop()
	return t, nil
}

// ParseBinary parses a binary truth-table string (minterm 2^n-1 first).
func ParseBinary(n int, s string) (TT, error) {
	t := New(n)
	if len(s) != t.NumBits() {
		return TT{}, fmt.Errorf("tt: binary string has %d bits, want %d", len(s), t.NumBits())
	}
	for i, c := range s {
		m := t.NumBits() - 1 - i
		switch c {
		case '1':
			t.SetBit(m, true)
		case '0':
		default:
			return TT{}, fmt.Errorf("tt: invalid binary digit %q", c)
		}
	}
	return t, nil
}
