package workloads

import (
	"testing"

	"dataproxy/internal/perf"
	"dataproxy/internal/sim"
)

// runOn executes one workload spec on a fresh cluster and returns the report.
func runOn(t *testing.T, spec Spec, cfg sim.ClusterConfig) sim.Report {
	t.Helper()
	cluster := sim.MustNewCluster(cfg)
	if err := spec.Run(cluster); err != nil {
		t.Fatalf("%s failed: %v", spec.Name, err)
	}
	rep := cluster.Report(spec.Name)
	if err := rep.Aggregate.Validate(); err != nil {
		t.Fatalf("%s produced inconsistent counters: %v", spec.Name, err)
	}
	if rep.Runtime <= 0 {
		t.Fatalf("%s reported non-positive runtime", spec.Name)
	}
	return rep
}

// smallPaperWorkloads returns down-scaled versions of the five workloads so
// unit tests stay fast; the full configurations are exercised by the
// experiment harness and benchmarks.  With reducedSampling the AI workloads
// additionally reduce their host-side sampling (one image per sampled
// AlexNet step, 1/8-resolution Inception).
func smallPaperWorkloads(reducedSampling bool) []Spec {
	alex := AlexNetConfig{Steps: 400, BatchSize: 32}
	incep := InceptionConfig{Steps: 100, BatchSize: 8}
	if reducedSampling {
		alex.SampleBatch = 1
		incep.SpatialScale = 8
	}
	return []Spec{
		TeraSort(4 * GiB),
		KMeans(KMeansConfig{InputBytes: 4 * GiB, Dim: 64, Clusters: 8, Sparsity: 0.9}),
		PageRank(PageRankConfig{Vertices: 1 << 20, AvgDegree: 8}),
		AlexNet(alex),
		InceptionV3(incep),
	}
}

func TestPaperWorkloadsSpecs(t *testing.T) {
	specs := PaperWorkloads()
	if len(specs) != 5 {
		t.Fatalf("the paper evaluates 5 workloads, got %d", len(specs))
	}
	wantNames := map[string]Pattern{
		"terasort":  IOIntensive,
		"kmeans":    CPUAndMemIntensive,
		"pagerank":  CPUAndIOIntensive,
		"alexnet":   CPUAndMemIntensive,
		"inception": CPUIntensive,
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if want, ok := wantNames[s.ShortName]; !ok || s.Pattern != want {
			t.Errorf("%s has pattern %q, want %q", s.ShortName, s.Pattern, want)
		}
		if s.DataSet == "" {
			t.Errorf("%s has no data set description", s.ShortName)
		}
	}
	if len(NewClusterWorkloads()) != 5 {
		t.Fatal("new-cluster configuration should also have 5 workloads")
	}
	if _, err := ByShortName("terasort"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByShortName("nope"); err == nil {
		t.Fatal("unknown workload should be rejected")
	}
	var empty Spec
	if err := empty.Validate(); err == nil {
		t.Fatal("empty spec should fail validation")
	}
}

func TestAllWorkloadsRunOnFiveNodeCluster(t *testing.T) {
	for _, spec := range smallPaperWorkloads(testing.Short()) {
		spec := spec
		t.Run(spec.ShortName, func(t *testing.T) {
			rep := runOn(t, spec, sim.FiveNodeWestmere())
			if rep.Aggregate.Instructions() == 0 {
				t.Fatal("workload executed no instructions")
			}
			if rep.Metrics.IPC <= 0 || rep.Metrics.MIPS <= 0 {
				t.Fatalf("degenerate metrics: %+v", rep.Metrics)
			}
		})
	}
}

func TestWorkloadPatternsShowInMetrics(t *testing.T) {
	alexCfg := AlexNetConfig{Steps: 400, BatchSize: 32}
	if testing.Short() {
		alexCfg.SampleBatch = 1
	}
	tera := runOn(t, TeraSort(4*GiB), sim.FiveNodeWestmere())
	kmeans := runOn(t, KMeans(KMeansConfig{InputBytes: 4 * GiB, Dim: 64, Clusters: 8, Sparsity: 0.9}), sim.FiveNodeWestmere())
	alex := runOn(t, AlexNet(alexCfg), sim.FiveNodeWestmere())

	// TeraSort is I/O intensive: its disk bandwidth dwarfs the AI workload's.
	if tera.Metrics.DiskBW <= 10*alex.Metrics.DiskBW {
		t.Fatalf("TeraSort disk bandwidth %.2g should dwarf AlexNet's %.2g",
			tera.Metrics.DiskBW, alex.Metrics.DiskBW)
	}
	// The AI workload is floating-point heavy, the Hadoop workloads are not
	// (paper Figure 5: <1% FP for TeraSort, ~40% for AlexNet).
	if alex.Metrics.FloatRatio < 0.15 {
		t.Fatalf("AlexNet float ratio %.3f too low", alex.Metrics.FloatRatio)
	}
	if tera.Metrics.FloatRatio > 0.05 {
		t.Fatalf("TeraSort float ratio %.3f too high", tera.Metrics.FloatRatio)
	}
	// K-means does far more floating point work than TeraSort.
	if kmeans.Metrics.FloatRatio <= tera.Metrics.FloatRatio {
		t.Fatal("K-means should have a higher FP share than TeraSort")
	}
}

func TestKMeansSparsityAffectsBehaviour(t *testing.T) {
	sparse := runOn(t, KMeans(KMeansConfig{InputBytes: 2 * GiB, Dim: 64, Clusters: 8, Sparsity: 0.9}), sim.FiveNodeWestmere())
	dense := runOn(t, KMeans(KMeansConfig{InputBytes: 2 * GiB, Dim: 64, Clusters: 8, Sparsity: 0}), sim.FiveNodeWestmere())
	// Dense vectors do more floating point work per byte (paper Section IV-A
	// observes roughly 2x the memory bandwidth for dense data).
	if dense.Aggregate.FloatInstrs <= sparse.Aggregate.FloatInstrs {
		t.Fatalf("dense input should execute more FP instructions (%d vs %d)",
			dense.Aggregate.FloatInstrs, sparse.Aggregate.FloatInstrs)
	}
	if dense.Metrics.MemBW <= sparse.Metrics.MemBW {
		t.Fatalf("dense input should need more memory bandwidth (%.3g vs %.3g)",
			dense.Metrics.MemBW, sparse.Metrics.MemBW)
	}
}

func TestWorkloadConfigValidation(t *testing.T) {
	cluster := sim.MustNewCluster(sim.FiveNodeWestmere())
	if err := KMeans(KMeansConfig{InputBytes: GiB}).Run(cluster); err == nil {
		t.Fatal("zero-dimension K-means should fail")
	}
	if err := PageRank(PageRankConfig{Vertices: 0}).Run(cluster); err == nil {
		t.Fatal("zero-vertex PageRank should fail")
	}
	if err := AlexNet(AlexNetConfig{}).Run(cluster); err == nil {
		t.Fatal("zero-step AlexNet should fail")
	}
	if err := InceptionV3(InceptionConfig{}).Run(cluster); err == nil {
		t.Fatal("zero-step Inception should fail")
	}
}

func TestNetworksAreStructurallyFaithful(t *testing.T) {
	alex := AlexNetNetwork()
	if len(alex.Layers) < 15 {
		t.Fatalf("AlexNet should have its 5 conv + 3 FC structure, got %d layers", len(alex.Layers))
	}
	if alex.ParamCount() == 0 {
		t.Fatal("AlexNet must have parameters")
	}
	inception := InceptionV3Network()
	// Count inception modules by name prefix.
	modules := 0
	for _, l := range inception.Layers {
		if len(l.Name()) >= 5 && l.Name()[:5] == "mixed" {
			modules++
		}
	}
	if modules < 3 {
		t.Fatalf("Inception-V3 model should contain at least 3 inception modules, got %d", modules)
	}
	// The in-process Inception is width-scaled by 4 (vs 2 for AlexNet), so
	// only a loose absolute sanity bound applies.
	if inception.ParamCount() < 10_000 {
		t.Fatalf("Inception parameter count %d implausibly small", inception.ParamCount())
	}
}

func TestFiveNodeFasterThanThreeNodeForTeraSort(t *testing.T) {
	five := runOn(t, TeraSort(8*GiB), sim.FiveNodeWestmere())
	three := runOn(t, TeraSort(8*GiB), sim.ThreeNodeWestmere64GB())
	if five.Runtime >= three.Runtime {
		t.Fatalf("TeraSort on 4 workers (%.1fs) should beat 2 workers (%.1fs)", five.Runtime, three.Runtime)
	}
}

func TestHaswellSpeedsUpWorkloads(t *testing.T) {
	spec := KMeans(KMeansConfig{InputBytes: 2 * GiB, Dim: 64, Clusters: 8, Sparsity: 0.9})
	west := runOn(t, spec, sim.ThreeNodeWestmere64GB())
	has := runOn(t, spec, sim.ThreeNodeHaswell64GB())
	speedup := sim.Speedup(west.Runtime, has.Runtime)
	if speedup <= 1.0 {
		t.Fatalf("Haswell should speed up K-means, got %.2fx", speedup)
	}
	if speedup > 3.0 {
		t.Fatalf("cross-generation speedup %.2fx implausibly high", speedup)
	}
}

func TestWorkloadMetricsAreWellFormed(t *testing.T) {
	rep := runOn(t, PageRank(PageRankConfig{Vertices: 1 << 20, AvgDegree: 8}), sim.FiveNodeWestmere())
	for i, v := range rep.Metrics.Vector() {
		if v < 0 {
			t.Fatalf("metric %s is negative: %g", perf.MetricNames[i], v)
		}
	}
	for _, hit := range []float64{rep.Metrics.L1DHit, rep.Metrics.L1IHit, rep.Metrics.L2Hit, rep.Metrics.L3Hit} {
		if hit < 0 || hit > 1 {
			t.Fatalf("cache hit ratio %g outside [0,1]", hit)
		}
	}
	mix := rep.Metrics.LoadRatio + rep.Metrics.StoreRatio + rep.Metrics.IntRatio +
		rep.Metrics.FloatRatio + rep.Metrics.BranchRatio
	if mix < 0.999 || mix > 1.001 {
		t.Fatalf("instruction mix ratios sum to %g, want 1", mix)
	}
}
