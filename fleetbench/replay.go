package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dataproxy/internal/arch"
	"dataproxy/internal/core"
	"dataproxy/internal/fleet"
	"dataproxy/internal/motif"
	"dataproxy/internal/proxy"
	"dataproxy/internal/serve"
	"dataproxy/internal/sim"
	"dataproxy/internal/tuner"
	"dataproxy/pkg/client"
)

// span is one timed call at a layer boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Req    int    `json:"req"`    // replayed request the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory.  The replay has one request in flight at a
// time, so the innermost open span is the parent of the next one, even
// across the router → replica hop.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	req   int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) set(on bool, req int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on, t.req = on, req
}

func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// timed runs fn inside a span and returns its wall time.
func (t *tracer) timed(name string, fn func()) time.Duration {
	id := t.begin(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// last returns the duration of the most recent span with this name.
func (t *tracer) last(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := t.spans[i]; s.Name == name {
			return time.Duration(s.End - s.Start)
		}
	}
	return 0
}

// handler records one span named name around every /v1 request.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			h.ServeHTTP(w, r) // health probes are background traffic
			return
		}
		id := t.begin(name)
		defer t.end(id)
		h.ServeHTTP(w, r)
	})
}

// localFleet is the replay's in-process copy of the benchmark fleet: a
// fleet.Router in front of two serve.Server replicas over loopback HTTP.
type localFleet struct {
	servers []*serve.Server
	https   []*httptest.Server
	router  *fleet.Router
	c       *client.Client
}

func newLocalFleet(ctx context.Context, t *tracer) (*localFleet, error) {
	lf := &localFleet{}
	var backends []fleet.Backend
	for i := 0; i < fleetSize; i++ {
		name := replicaName(i)
		s, err := serve.New(serve.Config{Name: name})
		if err != nil {
			lf.close()
			return nil, err
		}
		lf.servers = append(lf.servers, s)
		hs := httptest.NewServer(t.handler("replica", s.Handler()))
		lf.https = append(lf.https, hs)
		backends = append(backends, fleet.Backend{Name: name, URL: hs.URL})
	}
	rt, err := fleet.NewRouter(fleet.Config{Backends: backends, ProbeInterval: 100 * time.Millisecond})
	if err != nil {
		lf.close()
		return nil, err
	}
	lf.router = rt
	hs := httptest.NewServer(t.handler("router", rt.Handler()))
	lf.https = append(lf.https, hs)
	lf.c = client.New(hs.URL, client.WithRetries(0))
	if err := waitHealthy(ctx, lf.c); err != nil {
		lf.close()
		return nil, err
	}
	return lf, nil
}

func (lf *localFleet) close() {
	for _, hs := range lf.https {
		hs.Close()
	}
	if lf.router != nil {
		lf.router.Close()
	}
	for _, s := range lf.servers {
		s.Close()
	}
}

// layerResult is the per-layer half of a traced run.
type layerResult struct {
	metrics  map[string]metric
	problems []string
	spans    int
}

// replayer runs the traced replay and the single-layer probes.
type replayer struct {
	tr       *tracer
	reps     int // repetitions of each timed probe (medians are reported)
	passes   int // warm passes over the replayed requests
	seed     int64
	req      int
	out      layerResult
	pools    map[string]*sim.ClusterPool
	westmere arch.Profile
}

func (r *replayer) set(name, unit string, v float64) { r.out.metrics[name] = metric{v, unit} }

func (r *replayer) problem(format string, args ...any) {
	r.out.problems = append(r.out.problems, fmt.Sprintf(format, args...))
}

// nextReq starts a new replayed request.
func (r *replayer) nextReq(traced bool) {
	r.req++
	r.tr.set(traced, r.req)
}

func (r *replayer) pool(archName string) (*sim.ClusterPool, error) {
	if p := r.pools[archName]; p != nil {
		return p, nil
	}
	p, err := newPool(archName)
	if err == nil {
		r.pools[archName] = p
	}
	return p, err
}

// perLayer reports the serving counters of the timed run and runs the
// traced in-process replay of the workload's inputs plus one probe per
// layer.  Spans are written to the traces directory when it ends.
func perLayer(ctx context.Context, o options, wl workload, before, after fleetSample) (layerResult, string, error) {
	r := &replayer{tr: newTracer(), reps: 3, passes: 60, seed: o.seed, pools: map[string]*sim.ClusterPool{}, westmere: arch.Westmere()}
	if o.small {
		r.reps, r.passes = 1, 3
	}
	r.out.metrics = map[string]metric{}
	executed, coalesced := after.executed-before.executed, after.coalesced-before.coalesced
	r.set("serve.hit_ratio", "ratio", coalesced/math.Max(coalesced+executed, 1))
	r.set("serve.executed", "count", executed)
	r.set("serve.shed", "count", after.shed-before.shed)
	r.set("serve.lanes_per_sweep", "lanes", ratio(after.lanesSum-before.lanesSum, after.lanesCount-before.lanesCount))
	r.set("serve.window_wait_ms_mean", "ms", 1000*ratio(after.waitSeconds-before.waitSeconds, after.waitCount-before.waitCount))

	in := wl.replay()
	lf, err := newLocalFleet(ctx, r.tr)
	if err != nil {
		return r.out, "", err
	}
	err = r.requests(ctx, lf, in.runs)
	if err == nil {
		err = r.tune(ctx, lf, in.tune)
	}
	lf.close()
	if err != nil {
		return r.out, "", err
	}
	for _, probe := range []func() error{r.core, r.lanes, r.simPool, r.archProbe, r.datagen, r.motifs} {
		if ctx.Err() != nil {
			return r.out, "", ctx.Err()
		}
		if err := probe(); err != nil {
			return r.out, "", err
		}
	}
	units := map[string]string{"serve.hit_ratio": "ratio", "tuner.accuracy_pct": "%"}
	for name, v := range wl.layerCounts() {
		r.set(name, units[name], v)
	}
	r.tr.set(false, 0)
	r.out.spans = len(r.tr.spans)
	r.set("trace.spans", "count", float64(r.out.spans))
	spanFile := filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d%s.json", o.workload, o.seed, sizeTag(o.small)))
	return r.out, spanFile, writeJSONFile(spanFile, r.tr.spans)
}

// requests replays the workload's /v1/run requests one at a time through
// the in-process fleet: once cold, next to the same setting's
// core.RunBatch, then warm in alternating traced and untraced passes.
func (r *replayer) requests(ctx context.Context, lf *localFleet, runs []client.RunRequest) error {
	var hops, coldOverhead, warmReplica, traced, plain []float64
	for _, req := range runs {
		r.nextReq(true)
		var resp *client.RunResponse
		var err error
		r.tr.timed("client.Run", func() { resp, err = lf.c.Run(ctx, req) })
		if err != nil {
			return fmt.Errorf("replay %s: %w", runKey(req), err)
		}
		router, replica := r.tr.last("router"), r.tr.last("replica")
		hops = append(hops, us(router-replica))

		b, err := proxy.ForWorkload(req.Workload)
		if err != nil {
			return err
		}
		pool, err := r.pool(req.Arch)
		if err != nil {
			return err
		}
		var reps []sim.Report
		d := r.tr.timed("core.RunBatch", func() { reps, err = core.RunBatch(pool, b, []core.Setting{req.Setting}) })
		if err != nil {
			return err
		}
		coldOverhead = append(coldOverhead, ms(replica-d))
		got, err := canonicalMetrics(resp.Metrics)
		want, _ := reps[0].Metrics.MarshalJSON()
		if err != nil || string(got) != string(want) {
			r.problem("replayed %s: served %s, recomputed %s (%v)", runKey(req), got, want, err)
		}
	}
	for p := 0; p < r.passes; p++ {
		for _, on := range []bool{true, false} {
			for _, req := range runs {
				r.nextReq(on)
				id := r.tr.begin("client.Run")
				start := time.Now()
				resp, err := lf.c.Run(ctx, req)
				lat := us(time.Since(start))
				r.tr.end(id)
				if err != nil {
					return fmt.Errorf("warm replay %s: %w", runKey(req), err)
				}
				if !resp.Coalesced {
					r.problem("warm replay %s was not answered from the cache", runKey(req))
				}
				if !on {
					plain = append(plain, lat)
					continue
				}
				traced = append(traced, lat)
				router, replica := r.tr.last("router"), r.tr.last("replica")
				hops = append(hops, us(router-replica))
				warmReplica = append(warmReplica, us(replica))
			}
		}
	}
	r.set("fleet.hop_us_p50", "us", median(hops))
	r.set("serve.cold_overhead_ms_p50", "ms", median(coldOverhead))
	r.set("serve.warm_us_p50", "us", median(warmReplica))
	r.set("trace.overhead_pct", "%", 100*(median(traced)/median(plain)-1))
	return nil
}

// tune replays one tune job through the in-process fleet, then runs it
// in-process on fresh memos (cold) and against a memo restored from a cold
// run's export, which simulates nothing: that replay is the tuner's self
// time, and cold − self is the simulation it waits on.
func (r *replayer) tune(ctx context.Context, lf *localFleet, job client.TuneRequest) error {
	r.nextReq(true)
	var target map[string]float64
	var err error
	r.tr.timed("workloads.Spec.Run", func() {
		m, e := measureTarget(job.Workload, job.Arch)
		target, err = metricsMap(m), e
	})
	if err != nil {
		return err
	}
	job.Target = target
	var served *client.JobResponse
	r.tr.timed("client.Tune", func() {
		sub, e := lf.c.Tune(ctx, job)
		if e != nil {
			err = e
			return
		}
		served, err = lf.c.PollJob(ctx, sub.JobID, 10*time.Millisecond)
	})
	if err != nil {
		return fmt.Errorf("replay tune %s: %w", tuneKey(job), err)
	}

	var memo *tuner.Memo
	var res tuner.Result
	var cold []float64
	for k := 0; k < r.reps; k++ {
		memo = tuner.NewMemo()
		d := r.tr.timed("tuner.TuneWithPool", func() { res, err = tuneInProcess(job, target, memo) })
		if err != nil {
			return err
		}
		cold = append(cold, ms(d))
	}
	switch {
	case served.Result == nil:
		r.problem("replayed tune %s ended %s: %s", tuneKey(job), served.State, served.Error)
	default:
		if d := diffTune(res, served.Result); d != "" {
			r.problem("replayed tune %s differs from in-process: %s", tuneKey(job), d)
		}
	}
	exported := memo.Export()
	var self []float64
	for k := 0; k < r.reps; k++ {
		warm := tuner.NewMemo()
		for _, e := range exported {
			warm.Restore(e.Key, e.Metrics)
		}
		var again tuner.Result
		d := r.tr.timed("tuner.TuneWithPool.replay", func() { again, err = tuneInProcess(job, target, warm) })
		if err != nil {
			return err
		}
		if again.Evaluations != 0 {
			r.problem("tune replay against the restored memo simulated %d settings", again.Evaluations)
		}
		self = append(self, ms(d))
	}
	r.set("tuner.self_ms_p50", "ms", median(self))
	r.set("tuner.sim_ms_p50", "ms", median(cold)-median(self))
	r.set("tuner.evaluations", "count", float64(res.Evaluations))
	r.set("tuner.memo_hits", "count", float64(res.MemoHits))
	r.set("tuner.accuracy_pct", "%", 100*res.Report.Average())

	b, err := proxy.ForWorkload(job.Workload)
	if err != nil {
		return err
	}
	pool, err := r.pool(job.Arch)
	if err != nil {
		return err
	}
	key := tuner.AppendMemoKey(nil, pool.Proto(), b, core.DefaultSetting())
	if _, ok, _ := memo.PeekBytes(key); !ok {
		r.problem("the tuned memo has no entry for the default setting")
	}
	const n = 200_000
	var peek []float64
	for k := 0; k < r.reps; k++ {
		d := r.tr.timed("tuner.Memo.PeekBytes", func() {
			for i := 0; i < n; i++ {
				memo.PeekBytes(key)
			}
		})
		peek = append(peek, float64(d.Nanoseconds())/n)
	}
	r.set("tuner.peek_ns", "ns", median(peek))
	return nil
}

// core times core.Run of every proxy on a fresh Westmere cluster and counts
// the cache line probes of its first run.
func (r *replayer) core() error {
	r.nextReq(true)
	var all []float64
	var instrs, seconds float64
	for _, w := range proxyNames {
		b, err := proxy.ForWorkload(w)
		if err != nil {
			return err
		}
		var times []float64
		for k := 0; k < r.reps; k++ {
			cluster, err := sim.NewCluster(sim.SingleNode(r.westmere, 0))
			if err != nil {
				return err
			}
			var rep sim.Report
			d := r.tr.timed("core.Run", func() { rep, err = core.Run(cluster, b, nil) })
			if err != nil {
				return err
			}
			if k == 0 {
				r.set("arch.line_probes."+w, "count", float64(lineProbes(cluster)))
			}
			times = append(times, ms(d))
			instrs += float64(rep.Aggregate.Instructions())
			seconds += d.Seconds()
		}
		r.set("core.run_ms."+w, "ms", median(times))
		all = append(all, times...)
	}
	r.set("core.run_ms_p50", "ms", median(all))
	r.set("core.sim_minstr_per_s", "Minstr/s", instrs/seconds/1e6)
	return nil
}

// lineProbes sums Accesses() over every distinct cache of the cluster.
func lineProbes(c *sim.Cluster) uint64 {
	seen := map[*arch.Cache]bool{}
	var total uint64
	for _, n := range c.Nodes() {
		m := n.Machine()
		for i := 0; i < m.NumCores(); i++ {
			h := m.Core(i).Caches
			for _, cache := range []*arch.Cache{h.L1I, h.L1D, h.L2, h.L3} {
				if cache != nil && !seen[cache] {
					seen[cache] = true
					total += cache.Accesses()
				}
			}
		}
	}
	return total
}

// lanes measures the marginal cost of one more lane in a trace group:
// (RunBatch of 16 same-trace K-means settings − RunBatch of 1) / 15.
func (r *replayer) lanes() error {
	r.nextReq(true)
	b, err := proxy.ForWorkload("kmeans")
	if err != nil {
		return err
	}
	pool, err := r.pool("westmere")
	if err != nil {
		return err
	}
	settings := make([]core.Setting, 16)
	for i := range settings {
		settings[i] = core.Setting{"dataSize": 0.5 + float64(i)/16, "weight": 0.6 + float64(i)/20}
	}
	// One lane costs well under 1% of the run, so take more repetitions than
	// the other probes before differencing two medians.
	var one, sixteen []float64
	for k := 0; k < 2*r.reps+1; k++ {
		d1 := r.tr.timed("core.RunBatch", func() { _, err = core.RunBatch(pool, b, settings[:1]) })
		if err != nil {
			return err
		}
		d16 := r.tr.timed("core.RunBatch", func() { _, err = core.RunBatch(pool, b, settings) })
		if err != nil {
			return err
		}
		one, sixteen = append(one, ms(d1)), append(sixteen, ms(d16))
	}
	r.set("core.lane_marginal_ms", "ms", (median(sixteen)-median(one))/15)
	return nil
}

// simPool times one ClusterPool.Get + Put of a Westmere cluster.
func (r *replayer) simPool() error {
	r.nextReq(true)
	pool, err := newPool("westmere")
	if err != nil {
		return err
	}
	pool.Put(pool.Get()) // the first Get clones; time the recycling
	const n = 200
	var per []float64
	for k := 0; k < r.reps; k++ {
		d := r.tr.timed("sim.ClusterPool.GetPut", func() {
			for i := 0; i < n; i++ {
				pool.Put(pool.Get())
			}
		})
		per = append(per, us(d)/n)
	}
	r.set("sim.pool_get_put_us", "us", median(per))
	return nil
}

// archProbe times Cache.AccessRun on a seeded trace over a 64 MiB working
// set — larger than any profile's L3 — per line probe at any level.
func (r *replayer) archProbe() error {
	r.nextReq(true)
	m, err := arch.NewMachine(r.westmere)
	if err != nil {
		return err
	}
	h := m.Core(0).Caches
	rng := rand.New(rand.NewPCG(uint64(r.seed), 0xa2c4))
	const n, workingSet = 100_000, 64 << 20
	addrs, sizes := make([]uint64, n), make([]uint64, n)
	for i := range addrs {
		addrs[i] = rng.Uint64N(workingSet) &^ 63
		sizes[i] = 64 << rng.IntN(4)
	}
	probes := func() uint64 { return h.L1D.Accesses() + h.L2.Accesses() + h.L3.Accesses() }
	var per []float64
	for k := 0; k < r.reps; k++ {
		before := probes()
		d := r.tr.timed("arch.Cache.AccessRun", func() {
			for i := range addrs {
				h.L1D.AccessRun(addrs[i], sizes[i], i%4 == 0)
			}
		})
		per = append(per, float64(d.Nanoseconds())/float64(probes()-before))
	}
	r.set("arch.ns_per_probe", "ns", median(per))
	return nil
}

// datagen times each proxy's input generator on its sample.
func (r *replayer) datagen() error {
	r.nextReq(true)
	for _, w := range proxyNames {
		b, err := proxy.ForWorkload(w)
		if err != nil {
			return err
		}
		var times []float64
		for k := 0; k < r.reps; k++ {
			times = append(times, ms(r.tr.timed("datagen.Input", func() { b.Input(7, b.SampleBytes, b.Base) })))
		}
		r.set("datagen.input_ms."+w, "ms", median(times))
	}
	return nil
}

// motifs times every edge of every proxy: motif.Lookup(impl).Run under
// Cluster.RunOnNode on the proxy's own input, accounting included.
func (r *replayer) motifs() error {
	for _, w := range proxyNames {
		r.nextReq(true)
		b, err := proxy.ForWorkload(w)
		if err != nil {
			return err
		}
		times := map[string][]float64{}
		for k := 0; k < r.reps; k++ {
			cluster, err := sim.NewCluster(sim.SingleNode(r.westmere, 0))
			if err != nil {
				return err
			}
			node := cluster.Workers()[0].ID()
			data := map[string]*motif.Dataset{core.InputNode: b.Input(7, b.SampleBytes, b.Base)}
			pending := append([]core.Edge(nil), b.Edges...)
			for len(pending) > 0 {
				j := 0
				for j < len(pending) && data[pending[j].From] == nil {
					j++
				}
				if j == len(pending) {
					return fmt.Errorf("%s: edges %v have no input", b.Name, pending)
				}
				e := pending[j]
				pending = append(pending[:j], pending[j+1:]...)
				impl, err := motif.Lookup(e.Impl)
				if err != nil {
					return err
				}
				in, out := data[e.From], (*motif.Dataset)(nil)
				d := r.tr.timed("motif."+e.Impl, func() {
					cluster.RunOnNode(b.Name+":"+e.Name, node, 1, func(ex *sim.Exec) { out = impl.Run(ex, in) })
				})
				if out == nil {
					out = &motif.Dataset{}
				}
				data[e.To] = out
				times[e.Impl] = append(times[e.Impl], ms(d))
			}
		}
		for impl, ts := range times {
			r.set("motif.edge_ms."+w+"."+impl, "ms", median(ts))
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
