package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestPercentileHandComputed(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {50, 35}, {100, 50},
		{25, 20},     // rank 1
		{90, 46},     // rank 3.6: 40 + 0.6·10
		{10, 17},     // rank 0.4: 15 + 0.4·5
		{62.5, 37.5}, // rank 2.5: between 35 and 40
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no values is not NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for these inputs.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 1, 2},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestInputsRepeatPerSeed(t *testing.T) {
	gen := func(seed int64) ([][]byte, [][]byte) {
		corpus, err := genCorpus(seed, 4, 6)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := genFresh(seed, 20, 4, corpus.seen)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range fresh {
			if _, fp, _ := fingerprintOf(p); corpus.seen[fp] {
				t.Fatalf("fresh AIG %.12s repeats a corpus structure", fp)
			}
		}
		return corpus.payloads, fresh
	}
	c1, f1 := gen(5)
	c2, f2 := gen(5)
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(f1, f2) {
		t.Fatal("same seed gave different AIGER inputs")
	}
	c3, f3 := gen(6)
	if reflect.DeepEqual(c1, c3) || reflect.DeepEqual(f1, f3) {
		t.Fatal("different seeds gave identical AIGER inputs")
	}
}

func TestOpSequenceRepeatsPerSeed(t *testing.T) {
	gen := func(seed int64) []op {
		return genOps(seed, serveMix, 100, func(r *rand.Rand, o *op) {
			o.b = int32(r.Intn(1000))
		})
	}
	a, b, c := gen(1), gen(1), gen(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different op sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave identical op sequences")
	}
	// Every block keeps the mix, and cold ops number their inputs.
	if len(a) != 100*40 || mixCount(serveMix, 100, opCold) != 400 {
		t.Fatalf("%d ops, %d cold; want %d, 400", len(a), mixCount(serveMix, 100, opCold), 100*40)
	}
	for blk := 0; blk < len(a); blk += 40 {
		var n [nKinds]int
		for _, o := range a[blk : blk+40] {
			n[o.kind]++
		}
		if n[opCold] != 4 || n[opWarm] != 30 || n[opNeighbors] != 6 {
			t.Fatalf("block at %d holds %v", blk, n)
		}
	}
	for i, o := range a {
		if o.kind == opCold && int(o.a) >= 400 {
			t.Fatalf("op %d uses cold input %d beyond the pool", i, o.a)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables the program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(list string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", list, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", list, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != strings.Join([]string{"repro-pipeline", "serve-mixed", "cluster-gateway"}, ",") {
		t.Errorf("workloads %s", got)
	}
}

// TestSmokeEveryWorkload runs each workload in smoke mode, untraced and
// traced, and checks the result line: correct, every metric present,
// and every end-to-end value positive.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "0.6", "--trace", trace, "--smoke"}
				if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				var rec record
				if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v, problems %v", res, rec.Problems)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if _, ok := res.Metrics[d.name]; !ok {
						t.Errorf("metric %s missing", d.name)
					}
				}
				if trace == "0" {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
				}
				if rec.Host.NumCPU < 1 || rec.Host.GoVersion == "" || rec.Seed != 3 {
					t.Errorf("record host/seed %+v %d", rec.Host, rec.Seed)
				}
			})
		}
	}
}

func TestPipelineDigestRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline twice")
	}
	o := options{workload: "repro-pipeline", seed: 9, seconds: 0.1, smoke: true}
	a, err := runPipeline(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPipeline(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if a.info["digest"] != b.info["digest"] {
		t.Fatalf("pair CSV digest %v then %v", a.info["digest"], b.info["digest"])
	}
	for _, f := range flowNames {
		if a.info["ands_out."+f] != b.info["ands_out."+f] {
			t.Fatalf("%s ands_out %v then %v", f, a.info["ands_out."+f], b.info["ands_out."+f])
		}
	}
}

func TestParseOptionsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-mixed", "--trace", "2"},
		{"--workload", "serve-mixed", "--seconds", "0"},
		{"--workload", "serve-mixed", "extra"},
	} {
		if _, err := parseOptions(args, &bytes.Buffer{}); err == nil {
			t.Errorf("parseOptions(%v) accepted", args)
		}
	}
}
