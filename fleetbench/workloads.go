package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"dataproxy/internal/core"
	"dataproxy/internal/fleet"
	"dataproxy/internal/perf"
	"dataproxy/internal/proxy"
	"dataproxy/internal/sim"
	"dataproxy/internal/tuner"
	"dataproxy/internal/workloads"
	"dataproxy/pkg/client"
)

// workload is one closed-loop traffic mix.  Every input is generated from
// the seed when the workload is built; the servers only see those inputs.
type workload interface {
	// setup prepares the freshly booted fleet (it runs once per set-up
	// repetition, on a new fleet each time).
	setup(ctx context.Context, router *client.Client) error
	clients() int
	roundLen() int
	ops() int
	// do performs op i against the router and validates its response.
	do(ctx context.Context, c *client.Client, i int) error
	// check runs the post-run output check and returns the output digest.
	check(plant bool) (digest string, problems []string)
	// window is the width of the slices of the timed run whose best
	// quartile the end-to-end metrics report; 0 makes the whole run one.
	window() time.Duration
	// replay returns the inputs of the traced in-process replay.
	replay() replayInputs
	// layerCounts returns the workload's own per-layer figures from the
	// timed run (tune: hit ratio and accuracy of its jobs).
	layerCounts() map[string]float64
}

// replayInputs are the requests the traced replay sends through an
// in-process router and replicas, drawn from the workload's own inputs.
type replayInputs struct {
	runs []client.RunRequest
	tune client.TuneRequest
}

// The proxies and architectures the workloads span.  PageRank is left out:
// one cold run takes 6–10 s on a small host and would eat the budget.
var (
	proxyNames = []string{"terasort", "kmeans", "alexnet", "inception"}
	archNames  = []string{"westmere", "haswell"}
	// taskFactors keep numTasks within one task of the base 8, so request
	// cost depends on the proxy, not on the draw.
	taskFactors = []float64{0.875, 1, 1.125}

	allPairs = pairsOf(proxyNames)
	// sweepMix is one cold-sweep round: every pair once and the two cheap
	// proxies (K-means and AlexNet, ~0.1 s a run against ~0.3 s) once more,
	// so the median falls inside the cheap class and p90 inside the
	// expensive one instead of on the boundary between them.
	sweepMix = append(pairsOf(proxyNames), pairsOf([]string{"kmeans", "alexnet"})...)
	// tunePairs leaves out Inception, whose jobs cost like TeraSort's
	// (~1.7 s against ~0.6 s for K-means and AlexNet): with it half the jobs
	// would be slow and the median would sit on the class boundary.
	tunePairs = pairsOf([]string{"terasort", "kmeans", "alexnet"})
)

type pair struct{ workload, arch string }

// pairsOf returns every proxy × architecture pair of the proxies.
func pairsOf(proxies []string) []pair {
	var all []pair
	for _, w := range proxies {
		for _, a := range archNames {
			all = append(all, pair{w, a})
		}
	}
	return all
}

// rounds returns n rounds of all the pairs, each round in its own seeded
// order.
func rounds(rng *rand.Rand, all []pair, n int) []pair {
	out := make([]pair, 0, n*len(all))
	for r := 0; r < n; r++ {
		for _, i := range rng.Perm(len(all)) {
			out = append(out, all[i])
		}
	}
	return out
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "cold-sweep":
		return newColdSweep(o.seed), nil
	case "warm-fleet":
		return newWarmFleet(o.seed, o.small), nil
	case "tune":
		return newTuneBench(o.seed), nil
	}
	return nil, fmt.Errorf("unknown -workload %q (want cold-sweep, warm-fleet or tune)", o.workload)
}

// problems collects output-check failures from concurrent clients.
type problems struct {
	mu   sync.Mutex
	list []string
}

func (p *problems) add(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.list) < 20 {
		p.list = append(p.list, fmt.Sprintf(format, args...))
	}
}

func (p *problems) addAll(list []string) {
	for _, s := range list {
		p.add("%s", s)
	}
}

func (p *problems) all() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.list...)
}

func runKey(r client.RunRequest) string {
	return r.Workload + "|" + r.Arch + "|" + core.Setting(r.Setting).Canonical()
}

// ---------------------------------------------------------------- cold-sweep

// coldSweep sends single-setting /v1/run requests, each a trace group no
// earlier request had: simulation does almost all the work.
type coldSweep struct {
	seed int64
	reqs []client.RunRequest
	got  [][]byte // canonical metrics JSON per completed op
	bad  problems
}

func newColdSweep(seed int64) *coldSweep {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xc01d))
	w := &coldSweep{seed: seed}
	seen := map[string]bool{}
	for _, p := range rounds(rng, sweepMix, 96) {
		b, _ := proxy.ForWorkload(p.workload)
		for {
			s := map[string]float64{
				"chunkSize": 0.5 + rng.Float64(),
				"numTasks":  taskFactors[rng.IntN(len(taskFactors))],
				"dataSize":  0.8 + 0.45*rng.Float64(),
			}
			key := p.arch + "|" + b.TraceKey(core.Setting(s))
			if !seen[key] {
				seen[key] = true
				w.reqs = append(w.reqs, client.RunRequest{Workload: p.workload, Arch: p.arch, Setting: s})
				break
			}
		}
	}
	w.got = make([][]byte, len(w.reqs))
	return w
}

func (w *coldSweep) setup(context.Context, *client.Client) error { return nil }
func (w *coldSweep) clients() int                                { return 2 }
func (w *coldSweep) roundLen() int                               { return len(sweepMix) }
func (w *coldSweep) ops() int                                    { return len(w.reqs) }
func (w *coldSweep) window() time.Duration                       { return 0 }
func (w *coldSweep) layerCounts() map[string]float64             { return nil }

func (w *coldSweep) do(ctx context.Context, c *client.Client, i int) error {
	req := w.reqs[i]
	resp, err := c.Run(ctx, req)
	if err != nil {
		return err
	}
	if resp.Workload != req.Workload || resp.Arch != req.Arch {
		w.bad.add("op %d: asked for %s on %s, answered %s on %s", i, req.Workload, req.Arch, resp.Workload, resp.Arch)
	}
	m, err := canonicalMetrics(resp.Metrics)
	if err != nil {
		w.bad.add("op %d (%s): %v", i, runKey(req), err)
		return nil
	}
	w.got[i] = m
	return nil
}

// check digests the first round (always completed: rounds only stop at
// their end) and recomputes a seeded sample of it in-process.
func (w *coldSweep) check(plant bool) (string, []string) {
	n := len(sweepMix)
	entries := map[string][]byte{}
	for i := 0; i < n; i++ {
		entries[runKey(w.reqs[i])] = w.got[i]
	}
	rng := rand.New(rand.NewPCG(uint64(w.seed), 0x5a3))
	sample := rng.Perm(n)[:3]
	if plant {
		w.got[sample[0]] = plantWrong(w.got[sample[0]])
	}
	for _, i := range sample {
		w.bad.addAll(compareRecomputed(w.reqs[i].Workload, w.reqs[i].Arch, []map[string]float64{w.reqs[i].Setting}, [][]byte{w.got[i]}))
	}
	return digest(entries), w.bad.all()
}

func (w *coldSweep) replay() replayInputs {
	return replayInputs{runs: w.reqs[:len(sweepMix)], tune: genTuneJobs(w.seed, 1)[0]}
}

// ---------------------------------------------------------------- warm-fleet

// warmFleet draws zipfian (s=1.1) requests over a pre-warmed universe of
// settings: simulation does nothing, the router hop, HTTP, JSON, memo-key
// building and the cache lookup do all of it.
type warmFleet struct {
	seed     int64
	universe []client.RunRequest
	groups   [][]int // universe indexes per trace group: one prewarm batch each
	draws    []int32
	want     [][]byte // canonical metrics per universe entry, from the prewarm
	bad      problems
}

func newWarmFleet(seed int64, small bool) *warmFleet {
	groupsPerPair, variants, ndraws := 2, 16, 400_000
	if small {
		groupsPerPair, variants, ndraws = 1, 3, 50_000
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x3a53))
	w := &warmFleet{seed: seed}
	for _, p := range allPairs {
		for g := 0; g < groupsPerPair; g++ {
			chunk, tasks := 0.5+rng.Float64(), taskFactors[rng.IntN(len(taskFactors))]
			var group []int
			for v := 0; v < variants; v++ {
				group = append(group, len(w.universe))
				w.universe = append(w.universe, client.RunRequest{Workload: p.workload, Arch: p.arch, Setting: map[string]float64{
					"chunkSize": chunk, "numTasks": tasks,
					"dataSize": 0.5 + rng.Float64(), "weight": 0.5 + rng.Float64(),
				}})
			}
			w.groups = append(w.groups, group)
		}
	}
	rank := balancedRanks(rng, w.universe)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(w.universe)-1))
	w.draws = make([]int32, ndraws)
	for i := range w.draws {
		w.draws[i] = int32(rank[zipf.Uint64()])
	}
	w.want = make([][]byte, len(w.universe))
	return w
}

// balancedRanks orders the universe by popularity: each rank in turn goes to
// a seeded, not yet ranked setting of the replica that has drawn the least
// zipf weight so far.  Every seed then splits the draws about evenly between
// the replicas.  With ranks drawn freely, one replica's share ranged from
// 34% to 66% over ten seeds, and throughput followed it by up to 40%.
func balancedRanks(rng *rand.Rand, universe []client.RunRequest) []int {
	names := make([]string, fleetSize)
	for i := range names {
		names[i] = replicaName(i)
	}
	ring := fleet.NewRing(names, 0) // the router's ring: same names, default vnodes
	owned := make([][]int, fleetSize)
	for _, i := range rng.Perm(len(universe)) {
		r := universe[i]
		owner, _ := ring.Owner(fleet.RunKey(r.Workload, r.Arch, core.Setting(r.Setting)), nil)
		for k, name := range names {
			if name == owner {
				owned[k] = append(owned[k], i)
			}
		}
	}
	weight := make([]float64, fleetSize)
	rank := make([]int, 0, len(universe))
	for k := 0; len(rank) < len(universe); k++ {
		next := -1
		for j := range owned {
			if len(owned[j]) > 0 && (next < 0 || weight[j] < weight[next]) {
				next = j
			}
		}
		rank = append(rank, owned[next][0])
		owned[next] = owned[next][1:]
		weight[next] += math.Pow(float64(k+1), -1.1) // zipf weight of rank k, v = 1
	}
	return rank
}

// clients is four, two per CPU of a 2-CPU host.  With two the CPUs idle
// between the hops of a request, and how long an idle virtual CPU takes to
// wake follows the load on the host: in runs alternating between the two,
// ops_per_s spread 22% (IQR over median, five seeds) with two clients and
// 10% with four.
func (w *warmFleet) clients() int  { return 4 }
func (w *warmFleet) roundLen() int { return 1 }
func (w *warmFleet) ops() int      { return len(w.draws) }

// window is half a second: over a thousand ops, a hundred beyond p90, and
// thirty windows in a 15-second run.  A host that steals CPU for a
// second stalls all four processes of every request, and a whole-run figure
// follows it; the best quartile of the windows does not.
func (w *warmFleet) window() time.Duration { return 500 * time.Millisecond }

func (w *warmFleet) layerCounts() map[string]float64 { return nil }

// setup pre-warms the whole universe with one batched /v1/run per trace
// group, two at a time, and requires every set-up to produce the same bytes.
func (w *warmFleet) setup(ctx context.Context, router *client.Client) error {
	var next atomic.Int64
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for k := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := int(next.Add(1) - 1); g < len(w.groups); g = int(next.Add(1) - 1) {
				if err := w.prewarm(ctx, router, w.groups[g]); err != nil {
					errs[k] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *warmFleet) prewarm(ctx context.Context, router *client.Client, group []int) error {
	first := w.universe[group[0]]
	req := client.RunRequest{Workload: first.Workload, Arch: first.Arch}
	for _, i := range group {
		req.Settings = append(req.Settings, w.universe[i].Setting)
	}
	resp, err := router.RunBatch(ctx, req)
	if err != nil {
		return fmt.Errorf("prewarm %s on %s: %w", req.Workload, req.Arch, err)
	}
	if len(resp.Results) != len(group) {
		return fmt.Errorf("prewarm %s on %s: %d results for %d settings", req.Workload, req.Arch, len(resp.Results), len(group))
	}
	for j, i := range group {
		m, err := canonicalMetrics(resp.Results[j].Metrics)
		if err != nil {
			w.bad.add("prewarm %s: %v", runKey(w.universe[i]), err)
			continue
		}
		if w.want[i] != nil && !bytes.Equal(w.want[i], m) {
			w.bad.add("prewarm %s: set-ups disagree", runKey(w.universe[i]))
		}
		w.want[i] = m
	}
	return nil
}

// do sends one zipfian draw.  The answer must equal, byte for byte, the
// validated prewarm answer for the same setting, so it decodes and passes
// perf.Metrics.Validate without decoding it again on the hot path.
func (w *warmFleet) do(ctx context.Context, c *client.Client, i int) error {
	e := w.draws[i]
	resp, err := c.Run(ctx, w.universe[e])
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, resp.Metrics); err != nil || !bytes.Equal(buf.Bytes(), w.want[e]) {
		w.bad.add("op %d (%s): answer differs from the prewarmed one", i, runKey(w.universe[e]))
	}
	return nil
}

// check digests the whole universe and recomputes one seeded trace group
// in-process.
func (w *warmFleet) check(plant bool) (string, []string) {
	entries := map[string][]byte{}
	for i, r := range w.universe {
		entries[runKey(r)] = w.want[i]
	}
	rng := rand.New(rand.NewPCG(uint64(w.seed), 0x5a3))
	group := w.groups[rng.IntN(len(w.groups))]
	if plant {
		w.want[group[0]] = plantWrong(w.want[group[0]])
	}
	first := w.universe[group[0]]
	var settings []map[string]float64
	var got [][]byte
	for _, i := range group {
		settings = append(settings, w.universe[i].Setting)
		got = append(got, w.want[i])
	}
	w.bad.addAll(compareRecomputed(first.Workload, first.Arch, settings, got))
	return digest(entries), w.bad.all()
}

func (w *warmFleet) replay() replayInputs {
	in := replayInputs{tune: genTuneJobs(w.seed, 1)[0]}
	seen := map[int32]bool{}
	for _, e := range w.draws {
		if !seen[e] {
			seen[e] = true
			in.runs = append(in.runs, w.universe[e])
		}
		if len(in.runs) == len(allPairs) {
			break
		}
	}
	return in
}

// ---------------------------------------------------------------------- tune

// tuneBench runs one qualification job at a time: POST /v1/tune, poll the
// job to its end, then the next job.  Every job carries the real-workload
// target measured in set-up.
type tuneBench struct {
	seed    int64
	warmup  []client.TuneRequest // one job per pair, run in set-up
	jobs    []client.TuneRequest
	targets map[pair]map[string]float64
	results []*client.TuneResult
	bad     problems
}

// genTuneJobs draws distinct jobs in rounds of every tune pair.  Each job
// tunes all four big-data parameters with two seeded impact factors, one
// below and one above 1.  Parameter subsets are not drawn: on one pair they
// make a job cost anywhere from 0.4 to 2.6 s, so per-job figures would
// follow the draw instead of the code.
func genTuneJobs(seed int64, nrounds int) []client.TuneRequest {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x7e4e))
	seen := map[string]bool{}
	var jobs []client.TuneRequest
	for _, p := range rounds(rng, tunePairs, nrounds) {
		for {
			job := client.TuneRequest{
				Workload:      p.workload,
				Arch:          p.arch,
				Parameters:    []string{"dataSize", "chunkSize", "numTasks", "weight"},
				ImpactFactors: []float64{0.6 + 0.25*rng.Float64(), 1.2 + 0.4*rng.Float64()},
			}
			if key := tuneKey(job); !seen[key] {
				seen[key] = true
				jobs = append(jobs, job)
				break
			}
		}
	}
	return jobs
}

func tuneKey(j client.TuneRequest) string {
	return fmt.Sprintf("%s|%s|%v|%v", j.Workload, j.Arch, j.Parameters, j.ImpactFactors)
}

func newTuneBench(seed int64) *tuneBench {
	jobs := genTuneJobs(seed, 17)
	n := len(tunePairs)
	w := &tuneBench{seed: seed, warmup: jobs[:n], jobs: jobs[n:]}
	w.results = make([]*client.TuneResult, len(w.jobs))
	return w
}

func (w *tuneBench) clients() int          { return 1 }
func (w *tuneBench) roundLen() int         { return len(tunePairs) }
func (w *tuneBench) ops() int              { return len(w.jobs) }
func (w *tuneBench) window() time.Duration { return 0 }

// setup measures every pair's real-workload target on the paper deployment,
// as serve.resolveTarget would, so jobs carry explicit targets.  Then it runs
// one warm-up job per pair (the replicas run them two at a time): the timed
// jobs meet the memo a serving tune service settles into, with each pair's
// baseline and Step-grid feedback path cached, so a job costs its own fresh
// impact analysis instead of depending on how many jobs of its pair ran
// before it (the first job of a pair costs about twice a later one).
func (w *tuneBench) setup(ctx context.Context, router *client.Client) error {
	w.targets = map[pair]map[string]float64{}
	for _, p := range tunePairs {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		m, err := measureTarget(p.workload, p.arch)
		if err != nil {
			return err
		}
		w.targets[p] = metricsMap(m)
	}
	ids := make([]string, len(w.warmup))
	for i, req := range w.warmup {
		sub, err := router.Tune(ctx, w.withTarget(req))
		if err != nil {
			return fmt.Errorf("warm-up job %s: %w", tuneKey(req), err)
		}
		ids[i] = sub.JobID
	}
	for i, id := range ids {
		req := w.withTarget(w.warmup[i])
		r, err := awaitJob(ctx, router, id, req)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if err := validateTuneResult(r, req.Target); err != nil {
			w.bad.add("warm-up job %s: %v", tuneKey(req), err)
		}
	}
	return nil
}

func (w *tuneBench) do(ctx context.Context, c *client.Client, i int) error {
	req := w.withTarget(w.jobs[i])
	sub, err := c.Tune(ctx, req)
	if err != nil {
		return err
	}
	r, err := awaitJob(ctx, c, sub.JobID, req)
	if err != nil {
		return err
	}
	if err := validateTuneResult(r, req.Target); err != nil {
		w.bad.add("job %d (%s): %v", i, tuneKey(req), err)
	}
	w.results[i] = r
	return nil
}

func (w *tuneBench) withTarget(req client.TuneRequest) client.TuneRequest {
	req.Target = w.targets[pair{req.Workload, req.Arch}]
	return req
}

// awaitJob polls a submitted job every 10 ms until it ends.
func awaitJob(ctx context.Context, c *client.Client, id string, req client.TuneRequest) (*client.TuneResult, error) {
	job, err := c.PollJob(ctx, id, 10*time.Millisecond)
	if err != nil {
		return nil, err
	}
	if job.State != client.JobDone || job.Result == nil {
		return nil, fmt.Errorf("job %s (%s) ended %s: %s", job.ID, tuneKey(req), job.State, job.Error)
	}
	return job.Result, nil
}

// validateTuneResult checks a finished job's result decodes into valid
// metric vectors, echoes the target it was given and reports an accuracy.
func validateTuneResult(r *client.TuneResult, target map[string]float64) error {
	for name, vec := range map[string]map[string]float64{"proxy_metrics": r.ProxyMetrics, "target": r.Target} {
		m, err := metricsFromMap(vec)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := m.Validate(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	for name, v := range target {
		if r.Target[name] != v {
			return fmt.Errorf("target %s echoed as %g, sent %g", name, r.Target[name], v)
		}
	}
	if math.IsNaN(r.AverageAccuracy) || r.AverageAccuracy < 0 || r.AverageAccuracy > 1 {
		return fmt.Errorf("average accuracy %g outside [0, 1]", r.AverageAccuracy)
	}
	return nil
}

// check digests the first round's results and re-runs one seeded job of it
// in-process with tuner.TuneWithPool.
func (w *tuneBench) check(plant bool) (string, []string) {
	n := len(tunePairs)
	entries := map[string][]byte{}
	for i := 0; i < n; i++ {
		entries[tuneKey(w.jobs[i])] = tuneDigestBytes(w.results[i])
	}
	i := rand.New(rand.NewPCG(uint64(w.seed), 0x5a3)).IntN(n)
	if plant && w.results[i] != nil {
		w.results[i].AverageAccuracy += 1e-9
	}
	job := w.jobs[i]
	res, err := tuneInProcess(job, w.targets[pair{job.Workload, job.Arch}], tuner.NewMemo())
	switch {
	case err != nil:
		w.bad.add("recomputing job %d: %v", i, err)
	case w.results[i] == nil:
		w.bad.add("job %d of the first round has no result", i)
	default:
		if d := diffTune(res, w.results[i]); d != "" {
			w.bad.add("job %d (%s) differs from its in-process recomputation: %s", i, tuneKey(job), d)
		}
	}
	return digest(entries), w.bad.all()
}

func (w *tuneBench) replay() replayInputs {
	in := replayInputs{tune: w.jobs[0]}
	for _, p := range w.jobs[:len(tunePairs)] {
		in.runs = append(in.runs, client.RunRequest{Workload: p.Workload, Arch: p.Arch})
	}
	return in
}

// layerCounts reports the memo hit ratio and mean accuracy of the first
// round's jobs (always complete, so deterministic at a seed).
func (w *tuneBench) layerCounts() map[string]float64 {
	var hits, evals, acc float64
	for _, r := range w.results[:len(tunePairs)] {
		if r == nil {
			continue
		}
		hits += float64(r.MemoHits)
		evals += float64(r.Evaluations)
		acc += r.AverageAccuracy
	}
	return map[string]float64{
		"serve.hit_ratio":    hits / math.Max(hits+evals, 1),
		"tuner.accuracy_pct": 100 * acc / float64(len(tunePairs)),
	}
}

// tuneDigestBytes renders the seed-determined part of a tune result (not
// the evaluation/hit split, which depends on what the shared cache held).
func tuneDigestBytes(r *client.TuneResult) []byte {
	if r == nil {
		return nil
	}
	data, _ := json.Marshal(struct {
		Setting      map[string]float64
		Converged    bool
		Iterations   int
		Average      float64
		Worst        float64
		WorstMetric  string
		PerMetric    map[string]float64
		ProxyMetrics map[string]float64
	}{r.Setting, r.Converged, r.Iterations, r.AverageAccuracy, r.WorstAccuracy, r.WorstMetric, r.PerMetric, r.ProxyMetrics})
	return data
}

// tuneInProcess runs a job's tune in this process, against a memo the
// caller controls.
func tuneInProcess(job client.TuneRequest, target map[string]float64, memo *tuner.Memo) (tuner.Result, error) {
	b, err := proxy.ForWorkload(job.Workload)
	if err != nil {
		return tuner.Result{}, err
	}
	t, err := metricsFromMap(target)
	if err != nil {
		return tuner.Result{}, err
	}
	pool, err := newPool(job.Arch)
	if err != nil {
		return tuner.Result{}, err
	}
	opts := tuner.Options{Parameters: job.Parameters, ImpactFactors: job.ImpactFactors}
	return tuner.TuneWithPool(pool, b, t, opts, memo)
}

// diffTune compares an in-process tune result with a served one.
func diffTune(want tuner.Result, got *client.TuneResult) string {
	switch {
	case want.Report.Average() != got.AverageAccuracy:
		return fmt.Sprintf("average accuracy %v vs %v", got.AverageAccuracy, want.Report.Average())
	case want.Setting.Canonical() != core.Setting(got.Setting).Canonical():
		return fmt.Sprintf("setting %v vs %v", got.Setting, want.Setting)
	case want.Converged != got.Converged || want.Iterations != got.Iterations:
		return "convergence or iteration count"
	}
	for name, v := range metricsMap(want.ProxyMetrics) {
		if got.ProxyMetrics[name] != v {
			return fmt.Sprintf("proxy metric %s %v vs %v", name, got.ProxyMetrics[name], v)
		}
	}
	return ""
}

// measureTarget simulates the real workload on the paper's deployment of the
// architecture's generation, mirroring serve.resolveTarget.
func measureTarget(workload, archName string) (perf.Metrics, error) {
	cfg := sim.FiveNodeWestmere()
	if archName == "haswell" {
		cfg = sim.ThreeNodeHaswell64GB()
	}
	spec, err := workloads.ByShortName(workload)
	if err != nil {
		return perf.Metrics{}, err
	}
	cluster, err := sim.NewCluster(cfg)
	if err != nil {
		return perf.Metrics{}, err
	}
	if err := spec.Run(cluster); err != nil {
		return perf.Metrics{}, fmt.Errorf("measuring the %s target on %s: %w", workload, archName, err)
	}
	return cluster.Report(spec.Name).Metrics, nil
}

func metricsMap(m perf.Metrics) map[string]float64 {
	out := make(map[string]float64, len(perf.MetricNames))
	for _, name := range perf.MetricNames {
		out[name] = m.Get(name)
	}
	return out
}

func metricsFromMap(vec map[string]float64) (perf.Metrics, error) {
	var m perf.Metrics
	for name, v := range vec {
		if err := m.Set(name, v); err != nil {
			return perf.Metrics{}, err
		}
	}
	return m, nil
}
