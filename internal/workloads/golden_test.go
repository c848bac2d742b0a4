package workloads

import (
	"path/filepath"
	"testing"

	"dataproxy/internal/sim"
	"dataproxy/internal/testutil"
)

// TestWorkloadsGolden is the behaviour lock of the real-workload models
// (and so of sim.Cluster.RunStage, which every stage they run goes
// through): each down-scaled paper workload on the five-node Westmere
// cluster must render exactly the committed testdata/golden bytes.  The AI
// sampling is fixed to the reduced setting in every mode, so the same
// bytes are checked with and without -short.
func TestWorkloadsGolden(t *testing.T) {
	for _, spec := range smallPaperWorkloads(true) {
		t.Run(spec.ShortName, func(t *testing.T) {
			rep := runOn(t, spec, sim.FiveNodeWestmere())
			got, err := testutil.RenderReport(rep)
			if err != nil {
				t.Fatal(err)
			}
			testutil.Golden(t, filepath.Join("testdata", "golden", spec.ShortName+".txt"), got)
		})
	}
}
