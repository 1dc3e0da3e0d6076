package aig

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// Fingerprint returns the canonical structural hash of g as a hex
// string. It is a Merkle-style digest: every node's hash is derived
// only from its kind (constant, the i-th primary input, AND) and the
// hashes of its fanins with their complement flags, with the two fanin
// edges sorted by hash so the digest cannot depend on node numbering or
// construction order; the graph digest folds in the PI count and the
// PO edge sequence. Consequently:
//
//   - two AIGs whose PO-reachable structure is identical hash
//     identically, regardless of the order nodes were created in or of
//     dead cones left behind by optimization passes;
//   - symbol names never influence the fingerprint — it identifies
//     structure, which is exactly the key under which per-graph
//     profiles and pairwise metric results may be shared.
//
// Two functionally equivalent but structurally different AIGs hash
// differently on purpose: the diversity metrics score structure.
//
// Caveat for consumers interning by fingerprint: the hash is
// node-numbering-independent, but some derived artifacts are not —
// the vertex/edge overlap sets behind VEO are keyed by raw node ids,
// so two identically-structured AIGs with different topological
// numberings produce different overlap sets while sharing one
// fingerprint (Cleanup compacts ids but preserves the input's
// relative order, so it does not canonicalize numbering either).
// A content-addressed store therefore computes numbering-sensitive
// artifacts on whichever representative was interned first; that is
// sound only because such artifacts are consumed pairwise against
// other stored representatives under the same rule, never compared
// against an externally numbered copy of the graph.
func (g *AIG) Fingerprint() string {
	const hashLen = sha256.Size
	hashes := make([][hashLen]byte, g.NumObjs())
	var buf [4]byte
	hashes[0] = sha256.Sum256([]byte("const0"))
	for i := 1; i <= g.numPIs && i < g.NumObjs(); i++ {
		binary.LittleEndian.PutUint32(buf[:], uint32(i-1))
		hashes[i] = sha256.Sum256(append([]byte("pi"), buf[:]...))
	}
	// The node array is a topological order, so fanin hashes are always
	// ready. Unreachable nodes are hashed too (cheaper than a
	// reachability pass) but never reach the graph digest, which folds
	// in PO cones only.
	edge := func(l Lit) []byte {
		e := make([]byte, 0, hashLen+1)
		e = append(e, hashes[l.Node()][:]...)
		if l.IsCompl() {
			return append(e, 1)
		}
		return append(e, 0)
	}
	for id := g.numPIs + 1; id < g.NumObjs(); id++ {
		e0, e1 := edge(g.fanin0[id]), edge(g.fanin1[id])
		if bytes.Compare(e0, e1) > 0 {
			e0, e1 = e1, e0
		}
		h := sha256.New()
		h.Write([]byte("and"))
		h.Write(e0)
		h.Write(e1)
		h.Sum(hashes[id][:0])
	}
	h := sha256.New()
	h.Write([]byte("aig"))
	binary.LittleEndian.PutUint32(buf[:], uint32(g.numPIs))
	h.Write(buf[:])
	binary.LittleEndian.PutUint32(buf[:], uint32(len(g.pos)))
	h.Write(buf[:])
	for _, po := range g.pos {
		h.Write(edge(po))
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// StructHash returns a 64-bit hash of g's exact storage: the PI count,
// every AND node's fanin pair in node-id order (dead nodes included)
// and the PO literals. Unlike Fingerprint it depends on node numbering,
// because the optimization passes do: it is the lookup key for results
// computed from exactly this graph. Names are left out; SameStructure,
// which every lookup must confirm a hash match with, compares them.
func (g *AIG) StructHash() uint64 {
	const prime = 1099511628211 // FNV-1a over 64-bit words
	h := uint64(14695981039346656037)
	h = (h ^ uint64(g.numPIs)) * prime
	h = (h ^ uint64(len(g.fanin0))) * prime
	for id := g.numPIs + 1; id < len(g.fanin0); id++ {
		h = (h ^ (uint64(g.fanin0[id])<<32 | uint64(g.fanin1[id]))) * prime
	}
	h = (h ^ uint64(len(g.pos))) * prime
	for _, l := range g.pos {
		h = (h ^ uint64(l)) * prime
	}
	return h
}

// SameStructure reports whether a and b are the same graph to every
// reader: equal PI counts, identical fanins node by node, identical PO
// literals, and equal PI and PO names as PIName and POName return them
// (an unset name equals an empty one). Levels follow from the fanins;
// whether either graph is frozen is not compared.
func SameStructure(a, b *AIG) bool {
	if a == b {
		return true
	}
	if a.numPIs != b.numPIs || !slices.Equal(a.fanin0, b.fanin0) ||
		!slices.Equal(a.fanin1, b.fanin1) || !slices.Equal(a.pos, b.pos) {
		return false
	}
	for i := 0; i < a.numPIs; i++ {
		if a.PIName(i) != b.PIName(i) {
			return false
		}
	}
	for i := range a.pos {
		if a.POName(i) != b.POName(i) {
			return false
		}
	}
	return true
}
