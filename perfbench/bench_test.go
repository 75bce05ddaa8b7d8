package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runShort runs one short workload in-process and returns its stdout and
// the parsed result line.
func runShort(t *testing.T, workload string, trace int, extra ...string) (string, jsonResult) {
	t.Helper()
	args := append([]string{
		"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", fmt.Sprint(trace),
		"--out", t.TempDir(),
	}, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%d: exit %d\n%s\n%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, stdout.String())
	}
	return stdout.String(), res
}

// ledger extracts the work-ledger lines of a report.
func ledger(report string) []string {
	var out []string
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "ledger ") {
			out = append(out, line)
		}
	}
	return out
}

// TestSmoke runs every workload of BENCHMARK.json in short mode (a
// one-second window), untraced and traced, and checks that the result
// parses, that every metric named in BENCHMARK.json is printed with its
// unit, that answers check out, that a deliberately wrong reference answer
// is counted as a failure, and that the work ledger repeats exactly across
// the three runs of one seed.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workload")
	}
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			report, res := runShort(t, w.Name, 0)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced run: correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, report)
			}
			if len(res.Metrics) != len(bf.EndToEnd) {
				t.Errorf("untraced run printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(bf.EndToEnd))
			}
			for _, m := range bf.EndToEnd {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}

			traced, tres := runShort(t, w.Name, 1)
			if !tres.Correct || tres.Failed != 0 {
				t.Errorf("traced run: correct=%v failed=%d\n%s", tres.Correct, tres.Failed, traced)
			}
			if len(tres.Metrics) != len(bf.PerLayer) {
				t.Errorf("traced run printed %d metrics, BENCHMARK.json names %d", len(tres.Metrics), len(bf.PerLayer))
			}
			for _, m := range bf.PerLayer {
				if got, ok := tres.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if !strings.Contains(traced, "self_ms.") {
				t.Errorf("traced run reports no layer self time\n%s", traced)
			}

			// The injection corrupts one reference answer and nothing
			// else, so the same seed must also give the same work ledger.
			wrong, wres := runShort(t, w.Name, 0, "--inject-wrong")
			if wres.Correct || wres.Failed < 1 {
				t.Errorf("wrong answer not counted: correct=%v failed=%d", wres.Correct, wres.Failed)
			}
			if !strings.Contains(wrong, "error_rate") {
				t.Errorf("no error_rate line\n%s", wrong)
			}
			a := ledger(report)
			if len(a) == 0 {
				t.Errorf("no work ledger\n%s", report)
			}
			for _, b := range [][]string{ledger(traced), ledger(wrong)} {
				if !reflect.DeepEqual(a, b) {
					t.Errorf("work ledger differs between runs of one seed:\n%s\nvs\n%s", strings.Join(a, "\n"), strings.Join(b, "\n"))
				}
			}
			for _, want := range []string{"vip.leaves.", "vip.matrix_cells."} {
				if !strings.Contains(strings.Join(a, "\n"), want) {
					t.Errorf("work ledger has no %s entries\n%s", want, strings.Join(a, "\n"))
				}
			}
		})
	}
}

// TestCatalogMatchesBenchmarkFile keeps the program's metric lists and
// BENCHMARK.json in step, and README.md documenting every per-layer metric.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var want, got []metricDef
	for _, m := range bf.EndToEnd {
		want = append(want, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(want, endToEnd) {
		t.Errorf("end-to-end metrics: BENCHMARK.json %v, program %v", want, endToEnd)
	}
	for _, m := range bf.PerLayer {
		got = append(got, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per-layer metrics: BENCHMARK.json %v, program %v", got, perLayer)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range bf.PerLayer {
		name := m.Name
		for _, v := range allVenues {
			name = strings.TrimSuffix(name, "."+v)
		}
		if !strings.Contains(string(readme), "`"+name) {
			t.Errorf("README.md does not map per-layer metric %s", m.Name)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	pct, v := tail(xs)
	if pct != 91 || v != 110 {
		t.Errorf("tail of 1..120 = p%d %v, want p91 110 (10 samples beyond)", pct, v)
	}
	big := make([]float64, 2000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if pct, v := tail(big); pct != 99 || v != 1980 {
		t.Errorf("tail of 1..2000 = p%d %v, want p99 1980", pct, v)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "server.handle", Start: 0, End: 10000},
		{ID: 2, Parent: 1, Name: "core.exec", Start: 2000, End: 6000},
		{ID: 3, Parent: 1, Name: "core.exec", Start: 5000, End: 8000},
	}}
	got := tr.selfTimes()
	if got["server"] != 4 || got["core"] != 7 {
		t.Errorf("self times %v, want server 4 ms (10 minus the 6 ms union) and core 7 ms", got)
	}
}
