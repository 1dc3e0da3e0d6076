// Command benchdiff compares two sets of perfbench results. Each input
// is a file of perfbench output: every line that is a run record
// ("benchmark": "perfbench/v1") counts, other lines are ignored. For
// every workload × metric present in both sets it prints each side's
// run count, median and quartiles and the change of the medians.
//
//	go run ./benchdiff old.jsonl new.jsonl
//
// It refuses (exit 2) to compare results taken on different hosts —
// CPU model, CPU count, GOMAXPROCS, Go version, OS or architecture —
// or a set that mixes hosts, because such numbers do not measure the
// change. Smoke-mode records are never compared.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

const schema = "perfbench/v1"

type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

type record struct {
	Benchmark string             `json:"benchmark"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Smoke     bool               `json:"smoke"`
	Host      host               `json:"host"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers"`
}

// resultSet is one side of the comparison.
type resultSet struct {
	name   string
	host   *host
	values map[string][]float64 // "workload metric" → one value per run
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff OLD NEW (files of perfbench output lines)")
		os.Exit(2)
	}
	code, err := run(os.Args[1], os.Args[2], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
	}
	os.Exit(code)
}

func run(oldPath, newPath string, w io.Writer) (int, error) {
	a, err := load(oldPath)
	if err != nil {
		return 2, err
	}
	b, err := load(newPath)
	if err != nil {
		return 2, err
	}
	if err := compare(a, b, w); err != nil {
		return 2, err
	}
	return 0, nil
}

func load(path string) (*resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(path, f)
}

// parse reads the run records of one result set.
func parse(name string, r io.Reader) (*resultSet, error) {
	rs := &resultSet{name: name, values: make(map[string][]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rec record
		if json.Unmarshal([]byte(line), &rec) != nil || rec.Benchmark != schema || rec.Smoke {
			continue
		}
		if rs.host == nil {
			h := rec.Host
			rs.host = &h
		} else if *rs.host != rec.Host {
			return nil, fmt.Errorf("%s mixes hosts: %+v and %+v", name, *rs.host, rec.Host)
		}
		vals, prefix := rec.Metrics, ""
		if rec.Trace {
			vals, prefix = rec.Layers, "layer:"
		}
		for m, v := range vals {
			key := rec.Workload + " " + prefix + m
			rs.values[key] = append(rs.values[key], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", name, err)
	}
	if rs.host == nil {
		return nil, fmt.Errorf("%s holds no %s run records", name, schema)
	}
	return rs, nil
}

// compare prints the per workload × metric comparison, or refuses when
// the two sets come from different hosts.
func compare(a, b *resultSet, w io.Writer) error {
	if *a.host != *b.host {
		return fmt.Errorf("refusing to compare across hosts:\n  %s: %+v\n  %s: %+v", a.name, *a.host, b.name, *b.host)
	}
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s\n", a.host.CPU, a.host.NumCPU, a.host.GOMAXPROCS, a.host.GoVersion)
	fmt.Fprintf(w, "%-44s %3s %12s %25s %3s %12s %25s %9s\n", "workload metric", "n", "old median", "old [q1, q3]", "n", "new median", "new [q1, q3]", "change")
	keys := make([]string, 0, len(a.values))
	for k := range a.values {
		if _, ok := b.values[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		av, bv := a.values[k], b.values[k]
		am, bm := median(av), median(bv)
		aq1, aq3 := quartiles(av)
		bq1, bq3 := quartiles(bv)
		change := "n/a"
		if am != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(bm-am)/math.Abs(am))
		}
		fmt.Fprintf(w, "%-44s %3d %12.5g %25s %3d %12.5g %25s %9s\n", k,
			len(av), am, fmt.Sprintf("[%.5g, %.5g]", aq1, aq3),
			len(bv), bm, fmt.Sprintf("[%.5g, %.5g]", bq1, bq3), change)
	}
	return nil
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles uses the "exclusive" method of Python's
// statistics.quantiles, like perfbench itself.
func quartiles(xs []float64) (float64, float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
