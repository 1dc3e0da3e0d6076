package repro

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// TestNoOrphanPackages fails for any internal package that no command
// imports, directly or transitively. Code reachable only from examples
// or tests is code that neither the paper pipeline nor the service runs.
func TestNoOrphanPackages(t *testing.T) {
	goList := func(args ...string) map[string]bool {
		t.Helper()
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				t.Fatalf("go list %v: %v\n%s", args, err, ee.Stderr)
			}
			t.Fatalf("go list %v: %v", args, err)
		}
		pkgs := make(map[string]bool)
		for _, p := range strings.Fields(string(out)) {
			pkgs[p] = true
		}
		return pkgs
	}
	reachable := goList("-deps", "./cmd/...")
	internal := goList("./internal/...")
	if len(internal) == 0 {
		t.Fatal("go list ./internal/... named no packages")
	}
	for p := range internal {
		if !reachable[p] {
			t.Errorf("%s is imported by no command under cmd/ — delete it or wire it in", p)
		}
	}
}
