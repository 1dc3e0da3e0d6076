package aig

import (
	"math/rand"
	"testing"
)

// TestFingerprintOrderIndependent: the same reachable structure built in
// different node-creation orders must fingerprint identically.
func TestFingerprintOrderIndependent(t *testing.T) {
	build := func(reverse bool) *AIG {
		g := New(4)
		a, b, c, d := g.PI(0), g.PI(1), g.PI(2), g.PI(3)
		var x, y Lit
		if reverse {
			y = g.And(c, d)
			x = g.And(a, b)
		} else {
			x = g.And(a, b)
			y = g.And(c, d)
		}
		g.AddPO(g.And(x, y.Not()))
		return g
	}
	f1, f2 := build(false).Fingerprint(), build(true).Fingerprint()
	if f1 != f2 {
		t.Errorf("construction order changed fingerprint: %s vs %s", f1, f2)
	}
}

// TestFingerprintIgnoresDanglingAndNames: dead cones and symbol names
// are not structure and must not affect the fingerprint.
func TestFingerprintIgnoresDanglingAndNames(t *testing.T) {
	base := New(3)
	po := base.And(base.PI(0), base.PI(1))
	base.AddPO(po)

	decorated := New(3)
	dpo := decorated.And(decorated.PI(0), decorated.PI(1))
	decorated.And(decorated.PI(1), decorated.PI(2)) // dangling
	decorated.AddPO(dpo)
	decorated.SetPIName(0, "a")
	decorated.SetPOName(0, "out")

	if f1, f2 := base.Fingerprint(), decorated.Fingerprint(); f1 != f2 {
		t.Errorf("dangling node or names changed fingerprint: %s vs %s", f1, f2)
	}
}

// TestFingerprintDistinguishes: structural differences — an extra
// complement, a different PO order, a different PI count — must change
// the fingerprint.
func TestFingerprintDistinguishes(t *testing.T) {
	mk := func(numPIs int, f func(g *AIG)) string {
		g := New(numPIs)
		f(g)
		return g.Fingerprint()
	}
	and := mk(2, func(g *AIG) { g.AddPO(g.And(g.PI(0), g.PI(1))) })
	nand := mk(2, func(g *AIG) { g.AddPO(g.And(g.PI(0), g.PI(1)).Not()) })
	andWide := mk(3, func(g *AIG) { g.AddPO(g.And(g.PI(0), g.PI(1))) })
	twoPO := mk(2, func(g *AIG) {
		x := g.And(g.PI(0), g.PI(1))
		g.AddPO(x)
		g.AddPO(x.Not())
	})
	seen := map[string]string{}
	for name, fp := range map[string]string{"and": and, "nand": nand, "andWide": andWide, "twoPO": twoPO} {
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s and %s collide on fingerprint %s", prev, name, fp)
		}
		seen[fp] = name
	}
}

// TestSameStructureExact: clones are SameStructure and hash equally;
// changing one fanin, one PO literal, the PI count or one PI or PO name
// makes them differ. StructHash must follow the fanin, PO and PI-count
// changes (names are SameStructure's alone).
func TestSameStructureExact(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	base := randomAIG(5, 30, r)
	base.SetPIName(0, "a")
	base.SetPOName(1, "y")

	clone := base.Clone()
	if !SameStructure(base, clone) || base.StructHash() != clone.StructHash() {
		t.Fatal("clone is not the same structure")
	}
	if !SameStructure(base, base.Frozen()) {
		t.Fatal("frozen copy is not the same structure")
	}
	unset := base.Clone()
	unset.SetPIName(3, "") // an explicitly empty name reads as unset
	if !SameStructure(base, unset) {
		t.Fatal("an empty name differs from an unset one")
	}

	last := base.NumObjs() - 1
	for _, tc := range []struct {
		name       string
		mutate     func(g *AIG) *AIG
		hashDiffer bool
	}{
		{"fanin", func(g *AIG) *AIG { g.fanin1[last] ^= 1; return g }, true},
		{"po literal", func(g *AIG) *AIG { g.pos[0] ^= 1; return g }, true},
		{"extra po", func(g *AIG) *AIG { g.AddPO(LitTrue); return g }, true},
		{"pi count", func(g *AIG) *AIG { g.numPIs++; return g }, true}, // same arrays, one more PI
		{"pi name", func(g *AIG) *AIG { g.SetPIName(0, "b"); return g }, false},
		{"po name", func(g *AIG) *AIG { g.SetPOName(0, "x"); return g }, false},
	} {
		m := tc.mutate(base.Clone())
		if SameStructure(base, m) || SameStructure(m, base) {
			t.Errorf("%s: differing graphs reported as the same structure", tc.name)
		}
		if tc.hashDiffer && base.StructHash() == m.StructHash() {
			t.Errorf("%s: StructHash unchanged", tc.name)
		}
	}
}
