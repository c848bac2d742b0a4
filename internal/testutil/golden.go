package testutil

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dataproxy/internal/sim"
)

// update rewrites the golden files instead of comparing against them
// (`make golden-bless`).  A re-bless changes the committed behaviour lock,
// so each one is named in CHANGES.md.
var update = flag.Bool("update", false, "rewrite golden files under testdata/ instead of comparing")

// RenderReport renders a report as golden-file text: the runtime and every
// stage's seconds (total and per node) as exact Float64bits next to a
// readable %g, the aggregate counters, and the canonical metric JSON.  Two
// reports render equal iff those figures are bit-identical.
func RenderReport(rep sim.Report) ([]byte, error) {
	var b bytes.Buffer
	bits := func(v float64) string { return fmt.Sprintf("%016x (%g)", math.Float64bits(v), v) }
	fmt.Fprintf(&b, "report %q on %q\n", rep.Name, rep.ClusterName)
	fmt.Fprintf(&b, "runtime %s\n", bits(rep.Runtime))
	for _, st := range rep.Stages {
		fmt.Fprintf(&b, "stage %q tasks=%d seconds=%s\n", st.Name, st.Tasks, bits(st.Seconds))
		nodes := make([]int, 0, len(st.PerNodeSeconds))
		for id := range st.PerNodeSeconds {
			nodes = append(nodes, id)
		}
		sort.Ints(nodes)
		for _, id := range nodes {
			fmt.Fprintf(&b, "  node %d seconds=%s\n", id, bits(st.PerNodeSeconds[id]))
		}
	}
	counters, err := json.Marshal(rep.Aggregate)
	if err != nil {
		return nil, err
	}
	metrics, err := rep.Metrics.MarshalJSON()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "counters %s\nmetrics %s\n", counters, metrics)
	return b.Bytes(), nil
}

// Golden compares got with the committed file at path (relative to the
// test's package directory), or rewrites the file under -update.
func Golden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (bless with `make golden-bless`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from the golden file\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
