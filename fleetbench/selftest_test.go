package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks against.
type benchmarkSpec struct {
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

// TestDriverSelfTest runs every workload at a tiny size against real
// proxyd/proxyrouter processes: every named metric must be printed with its
// unit and the output check must pass; a planted wrong response must fail it.
func TestDriverSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real server processes")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, cmd := range []string{"proxyd", "proxyrouter"} {
		build := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd)
		build.Dir = ".."
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	opts := func(workload string, trace, plant bool) options {
		return options{workload: workload, seed: 3, seconds: 0.5, trace: trace, bin: bin, out: t.TempDir(), setups: 1, small: true, plant: plant}
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := mustRun(t, opts(w.Name, false, false))
			for _, m := range spec.EndToEnd {
				checkMetric(t, res, m.Name, m.Unit)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			if planted := mustRun(t, opts(w.Name, false, true)); planted.Correct {
				t.Error("a planted wrong response passed the output check")
			}
		})
	}
	t.Run("trace", func(t *testing.T) {
		res := mustRun(t, opts("tune", true, false))
		for _, m := range spec.PerLayer {
			checkMetric(t, res, m.Name, m.Unit)
		}
		if !res.Correct {
			t.Error("output check failed on the traced run")
		}
		if len(res.Metrics) != len(spec.PerLayer) {
			t.Errorf("traced run printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(spec.PerLayer))
		}
	})
}

func mustRun(t *testing.T, o options) result {
	t.Helper()
	var info bytes.Buffer
	res, err := run(context.Background(), o, &info)
	if err != nil {
		t.Fatalf("run %+v: %v\n%s", o, err, info.String())
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	return res
}

func checkMetric(t *testing.T, res result, name, unit string) {
	t.Helper()
	m, ok := res.Metrics[name]
	switch {
	case !ok:
		t.Errorf("metric %s not printed", name)
	case m.Unit != unit:
		t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", name, m.Unit, unit)
	}
}
