// Command similarity computes the paper's pairwise dissimilarity metrics
// between two functionally equivalent AIGER files: the four traditional
// graph measures and the six AIG-specific scores, and optionally the ROD
// under each optimization flow.
//
// Usage:
//
//	similarity a.aag b.aag
//	similarity -rod a.aag b.aag     also optimize both and report ROD
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/aig"
	"repro/internal/aiger"
	"repro/internal/opt"
	"repro/internal/simil"
)

func main() {
	rod := flag.Bool("rod", false, "also compute the Relative Optimizability Difference per flow")
	seed := flag.Int64("seed", 1, "seed for randomized flows")
	checkEquiv := flag.Bool("check", true, "verify the two AIGs are functionally equivalent first")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: similarity [-rod] a.aag b.aag")
		os.Exit(2)
	}
	a, err := aiger.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	b, err := aiger.ReadFile(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	if *checkEquiv {
		checkEquivalence(a, b)
	}

	fmt.Printf("%-30s %v\n%-30s %v\n\n", flag.Arg(0), a.Stat(), flag.Arg(1), b.Stat())
	pa := simil.NewProfile(a, simil.ProfileOptions{Seed: 1})
	pb := simil.NewProfile(b, simil.ProfileOptions{Seed: 2})
	fmt.Printf("%-16s %10s   %s\n", "metric", "value", "direction")
	for _, m := range simil.Metrics() {
		dir := "higher = more different"
		if m.HigherIsSimilar {
			dir = "higher = more similar"
		}
		fmt.Printf("%-16s %10.4f   %s\n", m.Name, m.Compute(pa, pb), dir)
	}

	if *rod {
		fmt.Println()
		for _, flow := range opt.Flows() {
			oa := flow.Run(a, *seed)
			ob := flow.Run(b, *seed)
			fmt.Printf("ROD(%-11s) = %.4f   (%d vs %d gates)\n",
				flow.Name, simil.ROD(oa.NumAnds(), ob.NumAnds()), oa.NumAnds(), ob.NumAnds())
		}
	}
}

// checkEquivalence warns on stderr when a and b are not functionally
// equivalent: exhaustively up to 16 inputs, by 256 rounds of 64-pattern
// random simulation above that. The metrics still print either way.
func checkEquivalence(a, b *aig.AIG) {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		fmt.Fprintf(os.Stderr, "warning: interfaces differ (%d/%d vs %d/%d PIs/POs); equivalence not checked, metrics assume functional equivalence\n",
			a.NumPIs(), a.NumPOs(), b.NumPIs(), b.NumPOs())
		return
	}
	var idx int
	var err error
	if a.NumPIs() <= 16 {
		idx, err = aig.Equivalent(a, b)
	} else {
		idx, err = aig.RandomSimCheck(a, b, 256, rand.New(rand.NewSource(1)))
	}
	if err != nil {
		fatal(err)
	}
	if idx != -1 {
		fmt.Fprintf(os.Stderr, "warning: AIGs differ on output %d; metrics assume functional equivalence\n", idx)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "similarity:", err)
	os.Exit(1)
}
