package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
)

// smokeRuns holds one untraced run of one unit and one traced run of two
// units (one untraced, one traced) per workload at smoke size, made once
// and shared by the tests that read them.
var smokeRuns = sync.OnceValues(func() (map[string][2]*runResult, error) {
	gold, err := loadGolden(goldenJSON)
	if err != nil {
		return nil, err
	}
	out := map[string][2]*runResult{}
	for _, w := range workloads {
		var pair [2]*runResult
		for i, traced := range []bool{false, true} {
			pair[i] = measure(w, runOptions{seed: 1, size: "smoke", seconds: 1e-9, traced: traced, minUnits: 1 + i}, gold)
		}
		out[w.name] = pair
	}
	return out, nil
})

func TestSmokeRunsPass(t *testing.T) {
	runs, err := smokeRuns()
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range runs {
		for _, r := range pair {
			if r.failed != 0 || r.attempted == 0 || len(r.errs) != 0 {
				t.Errorf("%s trace=%t: failed %d of %d: %v", name, r.opts.traced, r.failed, r.attempted, r.errs)
			}
			if r.golden != goldenOK || r.smoke != goldenOK {
				t.Errorf("%s trace=%t: golden %s, smoke golden %s; want ok", name, r.opts.traced, r.golden, r.smoke)
			}
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestPrintsEveryDeclaredMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	declared := [2][]metricDef{}
	for _, m := range bj.EndToEnd {
		declared[0] = append(declared[0], metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range bj.PerLayer {
		declared[1] = append(declared[1], metricDef{name: m.Name, unit: m.Unit, better: m.Better})
	}
	for i, want := range [][]metricDef{endToEnd, perLayer} {
		if len(declared[i]) != len(want) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the harness %d", len(declared[i]), len(want))
		}
		for j := range want {
			if declared[i][j] != want[j] {
				t.Errorf("metric %d: BENCHMARK.json %+v, harness %+v", j, declared[i][j], want[j])
			}
		}
	}

	runs, err := smokeRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for i, r := range runs[w.name] {
			var out bytes.Buffer
			printRun(&out, r.record())
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s: last line has keys other than correct, attempted, failed, metrics: %s", w.name, lines[len(lines)-1])
			}
			var metrics map[string]metricValue
			if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(declared[i]) {
				t.Errorf("%s trace=%t: %d metrics printed, %d declared", w.name, i == 1, len(metrics), len(declared[i]))
			}
			for _, d := range declared[i] {
				m, ok := metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s printed as %+v (present %t), want unit %s", w.name, i == 1, d.name, m, ok, d.unit)
				}
				if !strings.Contains(out.String(), " "+d.name+" ") {
					t.Errorf("%s trace=%t: metric table lacks %s", w.name, i == 1, d.name)
				}
			}
		}
	}
}

func TestOutputHashRepeats(t *testing.T) {
	runs, err := smokeRuns()
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range runs {
		if pair[0].hash != pair[1].hash || pair[1].digest == 0 {
			t.Errorf("%s: two runs of the same inputs gave hashes %016x and %016x (state digest %016x)",
				name, pair[0].hash, pair[1].hash, pair[1].digest)
		}
	}
}

func TestCorruptGoldenFailsEveryCell(t *testing.T) {
	gold, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads[0]
	for _, bySeed := range gold[w.name] {
		for seed, e := range bySeed {
			e.Hash = strings.Repeat("0", 16)
			bySeed[seed] = e
		}
	}
	r := measure(w, runOptions{seed: 1, size: "smoke", seconds: 1e-9, minUnits: 1}, gold)
	if r.attempted == 0 || r.failed != r.attempted || r.correct() {
		t.Errorf("corrupt golden: failed %d of %d, correct %t; want every cell failed", r.failed, r.attempted, r.correct())
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := metricDef{name: "sim_cycles_per_s", better: "higher", bound: 0.05}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{100, 130, 70, 100, 125, 75, 100, 120, 80, 100}
	for _, c := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"identical", steady, steady, verdictSame},
		{"ten percent slower", steady, scaled(0.9), verdictWorse},
		{"ten percent faster", steady, scaled(1.1), verdictBetter},
		{"within bound", steady, scaled(0.98), verdictSame},
		{"noisy parent", noisy, noisy, verdictUnresolved},
		{"noisy parent, change beats every run", noisy, scaled(1.5), verdictBetter},
	} {
		if got, _ := compareMetric(d, c.base, c.head); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g; want 2.75, 8.25", q1, q3)
	}
}

func TestJoinBoolValue(t *testing.T) {
	got := strings.Join(joinBoolValue([]string{"--workload", "a", "--trace", "0", "--seconds", "1", "-trace", "1"}, "trace"), " ")
	if want := "--workload a --trace=0 --seconds 1 -trace=1"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}
