// Package faultinject is a deterministic, seed-driven fault-injection
// registry for chaos-testing the repository's durability boundaries
// (atomic file replacement, checkpoint appends, event logging, job
// spill, the service worker pool and caches).
//
// Every boundary declares a named injection *point* — a compile-time
// string constant, enforced unique by the aiglint "faultpoint"
// analyzer — and consults it on each traversal:
//
//	if err := faultinject.Hit(PointAtomicSync); err != nil { ... }
//
// When the registry is disabled (the production state) a point costs a
// single atomic load and nothing else: no map lookup, no lock, no
// allocation (see BenchmarkHitDisabled). When enabled, armed points
// fire according to a deterministic schedule — on exactly the Nth hit,
// from the Nth hit onward, or with a seeded probability — and inject a
// canned failure mode: a generic error, ENOSPC, an fsync error, a
// short or torn write, forced latency, or a context-deadline expiry.
//
// Determinism is the design center: a failing schedule is reproduced
// exactly by re-arming the same spec (see ArmFromSpec and the
// AIG_FAULTS environment variable), because triggers count hits
// process-locally and probability triggers draw from their own seeded
// source, never from wall clock or global randomness.
package faultinject

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Mode is a canned failure behavior for an armed point.
type Mode int

const (
	// ModeError injects a generic failure wrapping Err.
	ModeError Mode = iota
	// ModeENOSPC injects a disk-full failure wrapping syscall.ENOSPC.
	ModeENOSPC
	// ModeFsync injects a stable-storage sync failure (EIO).
	ModeFsync
	// ModeShortWrite makes a wrapped writer persist only a prefix of
	// the faulted write and report n < len(p) with a nil error (the
	// io.Writer short-write shape bufio turns into io.ErrShortWrite).
	ModeShortWrite
	// ModeTornWrite makes a wrapped writer persist only a prefix of
	// the faulted write and report an injected error: partial bytes
	// reach the file, exactly like a kill or power cut mid-write.
	ModeTornWrite
	// ModeLatency stalls the hit for Fault.Latency, then proceeds
	// without error. Under HitCtx the stall ends early with ctx.Err()
	// when the context ends first.
	ModeLatency
	// ModeDeadline injects an error wrapping context.DeadlineExceeded.
	ModeDeadline
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeENOSPC:
		return "enospc"
	case ModeFsync:
		return "fsync"
	case ModeShortWrite:
		return "short"
	case ModeTornWrite:
		return "torn"
	case ModeLatency:
		return "latency"
	case ModeDeadline:
		return "deadline"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Fault is what an armed point injects when its trigger fires.
type Fault struct {
	Mode Mode
	// Latency is the stall for ModeLatency.
	Latency time.Duration
	// KeepBytes bounds how many bytes of a faulted short/torn write
	// reach the underlying writer. Zero (or a value >= the write size)
	// keeps half the write, so the failure always lands mid-payload.
	KeepBytes int
}

// Trigger decides which hits of an armed point fire. Construct one
// with OnCall, FromCall, Always, or Probability.
type Trigger struct {
	onCall uint64 // fire on exactly this 1-based hit
	from   uint64 // fire on this hit and every later one
	prob   float64
	seed   int64
}

// OnCall fires on exactly the nth traversal of the point (1-based).
func OnCall(n uint64) Trigger { return Trigger{onCall: n} }

// FromCall fires on the nth traversal (1-based) and every one after.
func FromCall(n uint64) Trigger { return Trigger{from: n} }

// Always fires on every traversal.
func Always() Trigger { return FromCall(1) }

// Probability fires each traversal independently with probability p,
// drawn from a source seeded with seed — the same seed replays the
// same fire pattern.
func Probability(p float64, seed int64) Trigger { return Trigger{prob: p, seed: seed} }

// point is one armed injection site.
type point struct {
	mu    sync.Mutex
	trig  Trigger
	fault Fault
	rng   *rand.Rand // non-nil only for probability triggers
	hits  uint64
	fires uint64
}

// step records one traversal and reports whether it fires.
func (p *point) step() (Fault, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hits++
	fire := false
	switch {
	case p.trig.onCall > 0:
		fire = p.hits == p.trig.onCall
	case p.trig.from > 0:
		fire = p.hits >= p.trig.from
	case p.trig.prob > 0:
		if p.rng == nil {
			p.rng = rand.New(rand.NewSource(p.trig.seed))
		}
		fire = p.rng.Float64() < p.trig.prob
	}
	if fire {
		p.fires++
	}
	return p.fault, fire
}

// The registry. The enabled flag is the only state the production
// fast path reads; the map behind it is touched exclusively while
// enabled (chaos tests, AIG_FAULTS runs).
var (
	enabled atomic.Bool
	mu      sync.Mutex
	points  = map[string]*point{}
)

// Enabled reports whether the registry is live.
func Enabled() bool { return enabled.Load() }

// Enable arms the registry: hits on armed points start firing.
func Enable() { enabled.Store(true) }

// Disable stops every point from firing without forgetting schedules
// or counters.
func Disable() { enabled.Store(false) }

// Reset disables the registry and disarms every point. Chaos tests
// defer it so no schedule leaks into the next test.
func Reset() {
	Disable()
	mu.Lock()
	points = map[string]*point{}
	mu.Unlock()
}

// Arm schedules fault f at the named point under trigger t, replacing
// any previous arming (and its hit/fire counters).
func Arm(name string, t Trigger, f Fault) {
	mu.Lock()
	points[name] = &point{trig: t, fault: f}
	mu.Unlock()
}

// Disarm removes the named point's schedule.
func Disarm(name string) {
	mu.Lock()
	delete(points, name)
	mu.Unlock()
}

// Armed returns the names of every armed point, sorted.
func Armed() []string {
	mu.Lock()
	defer mu.Unlock()
	names := make([]string, 0, len(points))
	for name := range points {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Hits returns how many times the named point has been traversed
// while enabled.
func Hits(name string) uint64 {
	if p := lookup(name); p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.hits
	}
	return 0
}

// Fires returns how many times the named point has injected a fault.
func Fires(name string) uint64 {
	if p := lookup(name); p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.fires
	}
	return 0
}

func lookup(name string) *point {
	mu.Lock()
	defer mu.Unlock()
	return points[name]
}

// fireHook, when set, observes every firing at a context-aware site
// (HitCtx): request-tracing registers one so chaos runs can attribute
// each injected fault to the request it hit. Stored atomically so the
// disabled path stays lock-free.
var fireHook atomic.Pointer[func(ctx context.Context, name string, m Mode)]

// SetFireHook installs fn as the firing observer (nil removes it).
// fn must be fast and must not traverse injection points itself.
func SetFireHook(fn func(ctx context.Context, name string, m Mode)) {
	if fn == nil {
		fireHook.Store(nil)
		return
	}
	fireHook.Store(&fn)
}

// Err is the root of every injected failure: errors.Is(err, Err)
// distinguishes an injected fault from a real one.
var Err = fmt.Errorf("injected fault")

func injectedError(name string, m Mode) error {
	switch m {
	case ModeENOSPC:
		return fmt.Errorf("faultinject: %s: %w: %w", name, Err, syscall.ENOSPC)
	case ModeFsync:
		return fmt.Errorf("faultinject: %s: fsync: %w: %w", name, Err, syscall.EIO)
	case ModeDeadline:
		return fmt.Errorf("faultinject: %s: %w: %w", name, Err, context.DeadlineExceeded)
	default:
		return fmt.Errorf("faultinject: %s: %w", name, Err)
	}
}

// Hit consults the named point and returns the injected error if it
// fires (nil for ModeLatency, which stalls instead). The disabled
// path is a single atomic load.
func Hit(name string) error {
	if !enabled.Load() {
		return nil
	}
	return hitSlow(name)
}

func hitSlow(name string) error {
	// Hit is the context-free entry point by contract; HitCtx is the
	// attributed path.
	//lint:ignore ctxflow Hit's signature is deliberately context-free — injected delays must fire on schedule even on paths with no request context
	return hitSlowCtx(context.Background(), name)
}

// HitCtx is Hit with request attribution: when the point fires and a
// fire hook is installed, the hook sees (ctx, name, mode) before the
// fault takes effect — so a trace span in ctx records exactly which
// request the injected failure landed on. A latency stall also honours
// cancellation: it returns ctx.Err() as soon as ctx ends. Semantics are
// otherwise identical to Hit, including the single-atomic-load disabled
// path.
func HitCtx(ctx context.Context, name string) error {
	if !enabled.Load() {
		return nil
	}
	return hitSlowCtx(ctx, name)
}

func hitSlowCtx(ctx context.Context, name string) error {
	p := lookup(name)
	if p == nil {
		return nil
	}
	f, fire := p.step()
	if !fire {
		return nil
	}
	if hook := fireHook.Load(); hook != nil {
		(*hook)(ctx, name, f.Mode)
	}
	if f.Mode == ModeLatency {
		stall := time.NewTimer(f.Latency)
		defer stall.Stop()
		select {
		case <-stall.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return injectedError(name, f.Mode)
}

// Delay consults the named point at a site that cannot fail: only
// latency faults take effect; error modes armed here fire (and count)
// but inject nothing. The disabled path is a single atomic load.
func Delay(name string) {
	if !enabled.Load() {
		return
	}
	_ = hitSlow(name)
}

// WrapWriter interposes the named point on every Write through w.
// While the registry is disabled each Write costs one atomic load and
// delegates untouched. A firing point injects its mode: error modes
// fail the write outright; ModeShortWrite and ModeTornWrite persist
// only a prefix (see Fault.KeepBytes) so the downstream file really is
// torn, exactly like a kill mid-write.
func WrapWriter(name string, w io.Writer) io.Writer {
	return &faultWriter{name: name, w: w}
}

type faultWriter struct {
	name string
	w    io.Writer
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	if !enabled.Load() {
		return fw.w.Write(p)
	}
	pt := lookup(fw.name)
	if pt == nil {
		return fw.w.Write(p)
	}
	f, fire := pt.step()
	if !fire {
		return fw.w.Write(p)
	}
	switch f.Mode {
	case ModeLatency:
		time.Sleep(f.Latency)
		return fw.w.Write(p)
	case ModeShortWrite, ModeTornWrite:
		keep := f.KeepBytes
		if keep <= 0 || keep >= len(p) {
			keep = len(p) / 2
		}
		n, err := fw.w.Write(p[:keep])
		if err != nil {
			return n, err
		}
		if f.Mode == ModeShortWrite {
			return n, nil // n < len(p): the io.Writer short-write shape
		}
		return n, injectedError(fw.name, f.Mode)
	default:
		return 0, injectedError(fw.name, f.Mode)
	}
}
