package faultinject

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestDisabledHitIsNil(t *testing.T) {
	Reset()
	Arm("p/armed", Always(), Fault{Mode: ModeError})
	// Armed but not enabled: nothing fires.
	for i := 0; i < 3; i++ {
		if err := Hit("p/armed"); err != nil {
			t.Fatalf("disabled Hit returned %v", err)
		}
	}
	if got := Hits("p/armed"); got != 0 {
		t.Fatalf("disabled hits counted: %d", got)
	}
	Reset()
}

func TestOnCallFiresExactlyOnce(t *testing.T) {
	Reset()
	defer Reset()
	Arm("p/nth", OnCall(3), Fault{Mode: ModeENOSPC})
	Enable()
	var errs []error
	for i := 0; i < 5; i++ {
		errs = append(errs, Hit("p/nth"))
	}
	for i, err := range errs {
		want := i == 2
		if got := err != nil; got != want {
			t.Errorf("hit %d: err=%v, want fire=%t", i+1, err, want)
		}
	}
	if !errors.Is(errs[2], Err) || !errors.Is(errs[2], syscall.ENOSPC) {
		t.Errorf("injected error %v does not wrap Err and ENOSPC", errs[2])
	}
	if got := Fires("p/nth"); got != 1 {
		t.Errorf("fires = %d, want 1", got)
	}
	if got := Hits("p/nth"); got != 5 {
		t.Errorf("hits = %d, want 5", got)
	}
}

func TestFromCallFiresFromNOn(t *testing.T) {
	Reset()
	defer Reset()
	Arm("p/from", FromCall(2), Fault{Mode: ModeError})
	Enable()
	if err := Hit("p/from"); err != nil {
		t.Fatalf("hit 1 fired: %v", err)
	}
	for i := 2; i <= 4; i++ {
		if err := Hit("p/from"); err == nil {
			t.Fatalf("hit %d did not fire", i)
		}
	}
}

func TestProbabilityIsSeedDeterministic(t *testing.T) {
	Reset()
	defer Reset()
	pattern := func(seed int64) string {
		Arm("p/prob", Probability(0.5, seed), Fault{Mode: ModeError})
		Enable()
		var b strings.Builder
		for i := 0; i < 64; i++ {
			if Hit("p/prob") != nil {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	a, b := pattern(42), pattern(42)
	if a != b {
		t.Errorf("same seed diverged:\n%s\n%s", a, b)
	}
	c := pattern(43)
	if a == c {
		t.Errorf("different seeds produced the same 64-hit pattern %s", a)
	}
	if !strings.Contains(a, "1") || !strings.Contains(a, "0") {
		t.Errorf("p=0.5 pattern degenerate: %s", a)
	}
}

func TestDeadlineModeWrapsDeadlineExceeded(t *testing.T) {
	Reset()
	defer Reset()
	Arm("p/deadline", Always(), Fault{Mode: ModeDeadline})
	Enable()
	if err := Hit("p/deadline"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline fault = %v, want wrapping context.DeadlineExceeded", err)
	}
}

func TestLatencyModeStallsWithoutError(t *testing.T) {
	Reset()
	defer Reset()
	Arm("p/slow", Always(), Fault{Mode: ModeLatency, Latency: 20 * time.Millisecond})
	Enable()
	start := time.Now()
	if err := Hit("p/slow"); err != nil {
		t.Fatalf("latency fault returned error %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("latency fault stalled only %v", d)
	}
	// Delay at a cannot-fail site also stalls.
	start = time.Now()
	Delay("p/slow")
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("Delay stalled only %v", d)
	}
}

func TestLatencyModeHonoursCancellation(t *testing.T) {
	Reset()
	defer Reset()
	Arm("p/stall", Always(), Fault{Mode: ModeLatency, Latency: 10 * time.Second})
	Enable()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := HitCtx(ctx, "p/stall")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancelled latency fault = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("latency fault ignored its deadline: stalled %v", d)
	}
}

func TestWrapWriterShortAndTorn(t *testing.T) {
	Reset()
	defer Reset()
	payload := []byte("0123456789abcdef")

	var buf bytes.Buffer
	Arm("p/w", OnCall(1), Fault{Mode: ModeShortWrite})
	Enable()
	w := WrapWriter("p/w", &buf)
	n, err := w.Write(payload)
	if err != nil || n != len(payload)/2 {
		t.Errorf("short write = (%d, %v), want (%d, nil)", n, err, len(payload)/2)
	}
	if buf.Len() != len(payload)/2 {
		t.Errorf("short write persisted %d bytes, want %d", buf.Len(), len(payload)/2)
	}
	// Subsequent writes pass through untouched.
	buf.Reset()
	if n, err := w.Write(payload); n != len(payload) || err != nil {
		t.Errorf("post-fire write = (%d, %v)", n, err)
	}

	buf.Reset()
	Arm("p/w2", OnCall(1), Fault{Mode: ModeTornWrite, KeepBytes: 3})
	w2 := WrapWriter("p/w2", &buf)
	n, err = w2.Write(payload)
	if n != 3 || !errors.Is(err, Err) {
		t.Errorf("torn write = (%d, %v), want (3, injected)", n, err)
	}
	if got := buf.String(); got != "012" {
		t.Errorf("torn write persisted %q, want %q", got, "012")
	}
}

func TestWrapWriterShortWriteSurfacesThroughBufio(t *testing.T) {
	Reset()
	defer Reset()
	var buf bytes.Buffer
	Arm("p/bufio", OnCall(1), Fault{Mode: ModeShortWrite})
	Enable()
	bw := bufio.NewWriter(WrapWriter("p/bufio", &buf))
	if _, err := bw.Write([]byte("hello world\n")); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); !errors.Is(err, io.ErrShortWrite) {
		t.Errorf("bufio flush over short write = %v, want io.ErrShortWrite", err)
	}
	if buf.Len() == 0 || buf.Len() == len("hello world\n") {
		t.Errorf("short write through bufio persisted %d bytes, want a strict prefix", buf.Len())
	}
}

func TestWrapWriterDisabledPassesThrough(t *testing.T) {
	Reset()
	var buf bytes.Buffer
	Arm("p/off", Always(), Fault{Mode: ModeError})
	w := WrapWriter("p/off", &buf)
	if n, err := w.Write([]byte("abc")); n != 3 || err != nil {
		t.Errorf("disabled wrapped write = (%d, %v)", n, err)
	}
	Reset()
}

func TestArmedAndReset(t *testing.T) {
	Reset()
	Arm("b/two", Always(), Fault{})
	Arm("a/one", Always(), Fault{})
	if got := Armed(); len(got) != 2 || got[0] != "a/one" || got[1] != "b/two" {
		t.Errorf("Armed() = %v", got)
	}
	Disarm("a/one")
	if got := Armed(); len(got) != 1 || got[0] != "b/two" {
		t.Errorf("after Disarm, Armed() = %v", got)
	}
	Reset()
	if Enabled() || len(Armed()) != 0 {
		t.Error("Reset left state behind")
	}
}

func TestArmFromSpec(t *testing.T) {
	Reset()
	defer Reset()
	spec := "a/sync=fsync@3; b/write=torn:7@2; c/spill=enospc@p0.25/42; d/store=latency:5ms; e/any=deadline"
	if err := ArmFromSpec(spec); err != nil {
		t.Fatal(err)
	}
	if got := Armed(); len(got) != 5 {
		t.Fatalf("armed %v", got)
	}
	Enable()
	// a/sync: fsync error on exactly the 3rd hit.
	for i := 1; i <= 4; i++ {
		err := Hit("a/sync")
		if (err != nil) != (i == 3) {
			t.Errorf("a/sync hit %d: %v", i, err)
		}
		if i == 3 && !errors.Is(err, syscall.EIO) {
			t.Errorf("fsync fault %v does not wrap EIO", err)
		}
	}
	// b/write: torn at 7 bytes on the 2nd write.
	var buf bytes.Buffer
	w := WrapWriter("b/write", &buf)
	if _, err := w.Write([]byte("0123456789")); err != nil {
		t.Fatalf("1st write: %v", err)
	}
	n, err := w.Write([]byte("0123456789"))
	if n != 7 || !errors.Is(err, Err) {
		t.Errorf("2nd write = (%d, %v), want torn at 7", n, err)
	}
	// e/any: deadline on every hit.
	if err := Hit("e/any"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("e/any = %v", err)
	}
}

func TestArmFromSpecRejectsMalformed(t *testing.T) {
	defer Reset()
	for _, bad := range []string{
		"nomode",
		"p=unknownmode",
		"p=latency",       // latency without duration
		"p=enospc@p0.5",   // probability without seed
		"p=enospc@zero",   // unparsable trigger
		"p=enospc@0",      // zero call index
		"p=short:x",       // bad keep-bytes
		"p=error:arg",     // argument on argless mode
		"p=enospc@p1.5/1", // probability out of range
		"=enospc",         // empty point
	} {
		Reset()
		if err := ArmFromSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestEnableFromEnv(t *testing.T) {
	Reset()
	defer Reset()
	t.Setenv(EnvVar, "env/point=error@1")
	if err := EnableFromEnv(); err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("EnableFromEnv did not enable")
	}
	if err := Hit("env/point"); !errors.Is(err, Err) {
		t.Errorf("env-armed point did not fire: %v", err)
	}

	Reset()
	t.Setenv(EnvVar, "broken spec")
	if err := EnableFromEnv(); err == nil {
		t.Error("malformed env spec accepted")
	}
	if Enabled() {
		t.Error("malformed env spec enabled the registry")
	}

	Reset()
	t.Setenv(EnvVar, "")
	if err := EnableFromEnv(); err != nil || Enabled() {
		t.Errorf("empty env: err=%v enabled=%t", err, Enabled())
	}
}
