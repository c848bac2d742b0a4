package core_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"dataproxy/internal/core"
	"dataproxy/internal/proxy"
	"dataproxy/internal/sim"
	"dataproxy/internal/testutil"
)

// goldenSettings span four trace groups of every paper proxy: the defaults
// plus two weight/dataSize-only variants share one trace, while the
// chunkSize, numTasks and mixed settings each change the trace shape.
var goldenSettings = []core.Setting{
	nil,
	{"weight": 1.6, "dataSize": 2},
	{"dataSize": 0.5, "weight": 0.5},
	{"chunkSize": 0.5},
	{"numTasks": 2, "weight": 2.5},
	{"chunkSize": 2, "numTasks": 0.5, "dataSize": 4},
}

// TestRunGolden is the behaviour lock of the evaluation pipeline: for each
// paper proxy on both architecture profiles, core.Run of every golden
// setting and the matching lane of one core.RunBatch over all of them must
// render exactly the committed testdata/golden bytes (runtime and stage
// seconds as Float64bits, counters, metric JSON).  PageRank takes seconds
// per run, so it runs only outside -short, with core.Run checked on the
// defaults alone.  The race detector slows the simulation about tenfold,
// so the lock skips under -race; `make golden` (a CI step of its own) runs
// it without.
func TestRunGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("behaviour lock runs without -race (make golden)")
	}
	workloads := []string{"terasort", "kmeans", "alexnet", "inception"}
	if !testing.Short() {
		workloads = append(workloads, "pagerank")
	}
	for _, w := range workloads {
		b, err := proxy.ForWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, np := range testutil.Profiles() {
			t.Run(w+"/"+np.Name, func(t *testing.T) {
				batch, err := core.RunBatch(testutil.Pool(np.Profile), b, goldenSettings)
				if err != nil {
					t.Fatalf("RunBatch: %v", err)
				}
				var want bytes.Buffer
				for i, s := range goldenSettings {
					lane := renderGolden(t, i, s, batch[i])
					want.Write(lane)
					if w == "pagerank" && i > 0 {
						continue
					}
					solo, err := core.Run(testutil.Cluster(np.Profile), b, s)
					if err != nil {
						t.Fatalf("Run setting %d: %v", i, err)
					}
					if got := renderGolden(t, i, s, solo); !bytes.Equal(got, lane) {
						t.Errorf("setting %d: Run diverges from its RunBatch lane\n got:\n%s\nwant:\n%s", i, got, lane)
					}
				}
				testutil.Golden(t, filepath.Join("testdata", "golden", w+"_"+np.Name+".txt"), want.Bytes())
			})
		}
	}
}

func renderGolden(t *testing.T, i int, s core.Setting, rep sim.Report) []byte {
	t.Helper()
	body, err := testutil.RenderReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	name := "defaults"
	if s != nil {
		name = s.String()
	}
	return append([]byte(fmt.Sprintf("== setting %d: %s\n", i, name)), body...)
}
