package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"

	"repro/internal/aig"
	"repro/internal/aiger"
	"repro/internal/simil"
	"repro/internal/synth"
	"repro/internal/tt"
	"repro/internal/workload"
)

// encode writes g as binary AIGER — the bytes a client submits.
func encode(g *aig.AIG) ([]byte, error) {
	var b bytes.Buffer
	if err := aiger.WriteBinary(&b, g); err != nil {
		return nil, fmt.Errorf("encoding AIGER: %w", err)
	}
	return b.Bytes(), nil
}

// fingerprintOf decodes a payload the way the daemon does — keeping
// the PO-reachable cone — and returns the graph and its fingerprint.
func fingerprintOf(payload []byte) (*aig.AIG, string, error) {
	g, err := aiger.Read(bytes.NewReader(payload))
	if err != nil {
		return nil, "", fmt.Errorf("decoding AIGER: %w", err)
	}
	g = g.Cleanup()
	return g, g.Fingerprint(), nil
}

// distinct collects payloads of distinct structures: the daemon keeps
// the first submission of a fingerprint as its representative, and
// metrics that depend on node numbering (VEO, ASD) read that
// representative, so a benchmark that submitted two numberings of one
// structure concurrently could not know which one answers.
type distinct struct {
	payloads [][]byte
	fps      []string
	seen     map[string]bool
}

// add keeps payload if its structure is new to d (and to exclude).
func (d *distinct) add(payload []byte, exclude map[string]bool) error {
	_, fp, err := fingerprintOf(payload)
	if err != nil {
		return err
	}
	if d.seen == nil {
		d.seen = make(map[string]bool)
	}
	if !d.seen[fp] && !exclude[fp] {
		d.seen[fp] = true
		d.payloads = append(d.payloads, payload)
		d.fps = append(d.fps, fp)
	}
	return nil
}

// genCorpus synthesizes the first maxSpecs suite specs of at most
// maxInputs inputs under every recipe and keeps one encoding of each
// distinct structure. The suite's random functions come from seed.
func genCorpus(seed int64, maxInputs, maxSpecs int) (*distinct, error) {
	specs := workload.FilterByInputs(workload.Suite(seed), maxInputs)
	if len(specs) > maxSpecs {
		specs = specs[:maxSpecs]
	}
	d := &distinct{}
	for _, s := range specs {
		for _, r := range synth.Recipes() {
			b, err := encode(r.Build(s.Outputs))
			if err != nil {
				return nil, err
			}
			if err := d.add(b, nil); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// genFresh synthesizes n AIGs of distinct structure from random specs —
// inputs inputs, one or two outputs, a recipe drawn per spec — none of
// whose fingerprints is in exclude, and encodes them.
func genFresh(seed int64, n, inputs int, exclude map[string]bool) ([][]byte, error) {
	r := rand.New(rand.NewSource(seed))
	recipes := synth.Recipes()
	d := &distinct{}
	for len(d.payloads) < n {
		spec := make([]tt.TT, 1+r.Intn(2))
		for i := range spec {
			spec[i] = tt.Random(inputs, r)
		}
		b, err := encode(recipes[r.Intn(len(recipes))].Build(spec))
		if err != nil {
			return nil, err
		}
		if err := d.add(b, exclude); err != nil {
			return nil, err
		}
	}
	return d.payloads, nil
}

// --- in-process reference scores -----------------------------------------

// reference recomputes daemon answers in process: it decodes the
// submitted bytes, keeps the PO-reachable cone as the daemon stores
// it, seeds each profile the way the daemon does, and scores pairs in
// the daemon's canonical operand order.
// It is safe for concurrent use.
type reference struct {
	mu       sync.Mutex
	graphs   map[string]*aig.AIG // by fingerprint
	profiles map[string]*simil.Profile
}

func newReference() *reference {
	return &reference{graphs: make(map[string]*aig.AIG), profiles: make(map[string]*simil.Profile)}
}

// add registers a submitted payload and returns its fingerprint. Like
// the daemon's store, it keeps the first graph of a fingerprint; fresh
// reports whether this payload introduced it.
func (ref *reference) add(payload []byte) (fp string, fresh bool, err error) {
	g, fp, err := fingerprintOf(payload)
	if err != nil {
		return "", false, err
	}
	ref.mu.Lock()
	defer ref.mu.Unlock()
	if _, ok := ref.graphs[fp]; ok {
		return fp, false, nil
	}
	ref.graphs[fp] = g
	return fp, true, nil
}

// profileSeed mirrors the daemon's per-graph profile seed: FNV-64a of
// the fingerprint with the sign bit cleared.
func profileSeed(fp string) int64 {
	h := fnv.New64a()
	h.Write([]byte(fp))
	return int64(h.Sum64() & 0x7FFFFFFFFFFFFFFF)
}

func (ref *reference) profile(fp string) (*simil.Profile, error) {
	ref.mu.Lock()
	p, ok := ref.profiles[fp]
	g, known := ref.graphs[fp]
	ref.mu.Unlock()
	if ok {
		return p, nil
	}
	if !known {
		return nil, fmt.Errorf("no reference graph for %s", fp)
	}
	// Built outside the lock: two workers may both build a shared
	// graph's profile, which is deterministic, so either copy serves.
	p = simil.NewProfile(g, simil.ProfileOptions{Seed: profileSeed(fp)})
	ref.mu.Lock()
	ref.profiles[fp] = p
	ref.mu.Unlock()
	return p, nil
}

// check compares a daemon answer for pair (a, b) over the full metric
// set with the in-process scores, bit for bit.
func (ref *reference) check(a, b string, got map[string]float64) error {
	return ref.checkSubset(a, b, nil, got)
}

// checkSubset is check over the named metrics (nil: all of them).
func (ref *reference) checkSubset(a, b string, names []string, got map[string]float64) error {
	if a > b {
		a, b = b, a
	}
	pa, err := ref.profile(a)
	if err != nil {
		return err
	}
	pb, err := ref.profile(b)
	if err != nil {
		return err
	}
	ms := simil.Metrics()
	if names != nil {
		ms = ms[:0:0]
		for _, n := range names {
			m, ok := simil.MetricByName(n)
			if !ok {
				return fmt.Errorf("unknown metric %q", n)
			}
			ms = append(ms, m)
		}
	}
	if len(got) != len(ms) {
		return fmt.Errorf("pair %.8s/%.8s: %d scores, want %d", a, b, len(got), len(ms))
	}
	for _, m := range ms {
		want := m.Compute(pa, pb)
		v, ok := got[m.Name]
		if !ok || math.Float64bits(v) != math.Float64bits(want) {
			return fmt.Errorf("pair %.8s/%.8s: %s = %v, in-process %v", a, b, m.Name, v, want)
		}
	}
	return nil
}

// forget drops a graph's reference state once it is checked.
func (ref *reference) forget(fp string) {
	ref.mu.Lock()
	defer ref.mu.Unlock()
	delete(ref.graphs, fp)
	delete(ref.profiles, fp)
}
