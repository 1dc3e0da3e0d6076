package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func rec(cpu string, workload string, v float64) string {
	return `{"benchmark":"perfbench/v1","workload":"` + workload + `","seed":1,"trace":false,` +
		`"host":{"cpu":"` + cpu + `","nproc":2,"gomaxprocs":2,"go_version":"go1.24.0","os":"linux","arch":"amd64"},` +
		`"metrics":{"ops_per_s":` + strconv.FormatFloat(v, 'g', -1, 64) + `}}`
}

func mustParse(t *testing.T, name, text string) *resultSet {
	t.Helper()
	rs, err := parse(name, strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestCompareRefusesAcrossHosts(t *testing.T) {
	a := mustParse(t, "a", rec("cpu-A", "serve-mixed", 100)+"\n")
	b := mustParse(t, "b", rec("cpu-B", "serve-mixed", 100)+"\n")
	var out bytes.Buffer
	err := compare(a, b, &out)
	if err == nil || !strings.Contains(err.Error(), "across hosts") {
		t.Fatalf("compare across hosts: err %v, want a refusal", err)
	}
	if out.Len() != 0 {
		t.Fatalf("refused comparison printed %q", out.String())
	}
}

func TestParseRefusesMixedHosts(t *testing.T) {
	_, err := parse("mixed", strings.NewReader(rec("cpu-A", "w", 1)+"\n"+rec("cpu-B", "w", 2)+"\n"))
	if err == nil || !strings.Contains(err.Error(), "mixes hosts") {
		t.Fatalf("mixed hosts: err %v, want a refusal", err)
	}
}

func TestCompareSameHost(t *testing.T) {
	old := rec("cpu", "w", 100) + "\nnot json\n" + rec("cpu", "w", 110) + "\n" + rec("cpu", "w", 90) + "\n"
	neu := rec("cpu", "w", 120) + "\n" + rec("cpu", "w", 120) + "\n"
	var out bytes.Buffer
	if err := compare(mustParse(t, "old", old), mustParse(t, "new", neu), &out); err != nil {
		t.Fatal(err)
	}
	line := ""
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "w ops_per_s") {
			line = l
		}
	}
	if !strings.Contains(line, "+20.0%") || !strings.Contains(line, "  3 ") {
		t.Fatalf("comparison line %q: want 3 old runs and +20.0%%", line)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
