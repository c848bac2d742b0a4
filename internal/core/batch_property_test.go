package core_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"dataproxy/internal/core"
	"dataproxy/internal/parallel"
	"dataproxy/internal/sim"
	"dataproxy/internal/testutil"
)

func metricsJSON(t *testing.T, rep sim.Report) []byte {
	t.Helper()
	buf, err := rep.Metrics.MarshalJSON()
	if err != nil {
		t.Fatalf("marshal metrics: %v", err)
	}
	return buf
}

// TestRunBatchMatchesSequential is the batched==sequential equivalence
// property: for randomized K (including K=1 and K larger than the host
// worker count), both architecture profiles and several host worker counts,
// every lane of RunBatch must be bit-identical — metric bytes, aggregate
// counters, runtime and stages — to the solo reference path (RunSolo, which
// drives the cluster directly) of the same setting.
func TestRunBatchMatchesSequential(t *testing.T) {
	for _, np := range testutil.Profiles() {
		np := np
		t.Run(np.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			b := testutil.SmallBenchmark()
			solo := testutil.Cluster(np.Profile)
			pool := testutil.Pool(np.Profile)
			for _, k := range []int{1, 3, 17} {
				settings := make([]core.Setting, k)
				for i := range settings {
					settings[i] = testutil.RandomSetting(rng)
				}
				want := make([]sim.Report, k)
				for i, s := range settings {
					rep, err := core.RunSolo(solo, b, s)
					if err != nil {
						t.Fatalf("solo run %d: %v", i, err)
					}
					want[i] = rep
				}
				for _, workers := range []int{1, 2, 8} {
					prev := parallel.SetWorkers(workers)
					got, err := core.RunBatch(pool, b, settings)
					parallel.SetWorkers(prev)
					if err != nil {
						t.Fatalf("k=%d workers=%d: %v", k, workers, err)
					}
					if len(got) != k {
						t.Fatalf("k=%d: got %d reports", k, len(got))
					}
					for i := range got {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Errorf("k=%d workers=%d lane %d (%v): batched report diverges\n got: %+v\nwant: %+v",
								k, workers, i, settings[i], got[i], want[i])
						}
						if gb, wb := metricsJSON(t, got[i]), metricsJSON(t, want[i]); !bytes.Equal(gb, wb) {
							t.Errorf("k=%d lane %d: metric bytes diverge\n got %s\nwant %s", k, i, gb, wb)
						}
						if got[i].Aggregate != want[i].Aggregate {
							t.Errorf("k=%d lane %d: counters diverge\n got %+v\nwant %+v", k, i, got[i].Aggregate, want[i].Aggregate)
						}
					}
				}
			}
		})
	}
}
