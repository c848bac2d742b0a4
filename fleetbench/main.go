// Command fleetbench is the repository's end-to-end benchmark.  It boots a
// real proxyrouter in front of two real proxyd replicas on loopback (cache
// gossip off), drives one of three closed-loop workloads through pkg/client,
// checks every response, and prints the end-to-end metrics.  With -trace 1 it
// prints the per-layer metrics instead: serving counters from the timed run
// plus a traced in-process replay of the same generated inputs.
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	fleetbench -bin DIR -workload cold-sweep|warm-fleet|tune -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding the proxyd and proxyrouter binaries
	out      string // directory for logs, results, spans and digests
	setups   int    // minimum set-up repetitions; setup_s is their median
	small    bool   // self-test size: tiny universe and replay
	plant    bool   // self-test: corrupt one recorded response before checking
}

// minSetups is the least number of set-ups setup_s is the median of.
const minSetups = 3

// tailPercentile is the latency percentile latency_tail_ms reports on every
// workload.  cold-sweep and tune complete tens to a few hundred ops a run, so
// p90 is the highest with ten or more beyond it.  On warm-fleet p99 has
// enough samples, but it follows the host: in a run during which the
// hypervisor stole CPU it doubled, where p90 rose by 40%.
const tailPercentile = 90.0

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{setups: minSetups}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: cold-sweep, warm-fleet or tune")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input is derived from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed run in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced replay instead of end-to-end metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the proxyd and proxyrouter binaries")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for logs, results, spans and digests")
	flag.Parse()
	o.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		stop()
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		stop()
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		stop()
		os.Exit(1)
	}
}

// run performs one benchmark invocation and returns its result line; info
// lines (host metadata, digest, percentile choice) go to w first.
func run(ctx context.Context, o options, w io.Writer) (result, error) {
	if o.seconds <= 0 {
		return result{}, errors.New("-seconds must be positive")
	}
	wl, err := newWorkload(o)
	if err != nil {
		return result{}, err
	}
	for _, dir := range []string{"logs", "results", "traces", "digests"} {
		if err := os.MkdirAll(filepath.Join(o.out, dir), 0o755); err != nil {
			return result{}, err
		}
	}
	host := hostInfo()
	fmt.Fprintf(w, "fleetbench: host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		host.CPU, host.NProc, host.GOMAXPROCS, host.Go, host.Commit)

	// Set up on fresh fleets at least o.setups times and until two seconds
	// of set-up have passed (a bare fleet boot takes ~20 ms), and keep the
	// last fleet: setup_s is the median, so one slow start does not move it.
	var setupTimes []float64
	var fl *procFleet
	for i, spent := 0, 0.0; i < o.setups || (spent < 2 && i < 25); i++ {
		fl.stop() // the previous repetition's fleet; nil-safe
		start := time.Now()
		f, err := startFleet(ctx, o.bin, filepath.Join(o.out, "logs"))
		if err != nil {
			return result{}, err
		}
		if err := wl.setup(ctx, f.router); err != nil {
			f.stop()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		spent += setupTimes[i]
		fl = f
	}
	defer fl.stop()

	before, err := fl.sample(ctx)
	if err != nil {
		return result{}, err
	}
	// The load generator, like the router, only forwards: one P keeps its
	// idle Ps from spinning for work against the replicas on a small host.
	procs := runtime.GOMAXPROCS(1)
	var cpuErr error
	cpu := func() float64 {
		v, err := fl.cpuSeconds()
		if err != nil && cpuErr == nil {
			cpuErr = err
		}
		return v
	}
	load := closedLoop(ctx, fl.router, wl.clients(), wl.roundLen(), wl.ops(), o.seconds, wl.window(), cpu, wl.do)
	runtime.GOMAXPROCS(procs)
	if cpuErr != nil {
		return result{}, cpuErr
	}
	after, err := fl.sample(ctx)
	if err != nil {
		return result{}, err
	}
	peakMB := fl.peakRSSMB()
	fl.stop()
	if ctx.Err() != nil {
		return result{}, ctx.Err()
	}
	for _, e := range load.errs {
		fmt.Fprintln(os.Stderr, "fleetbench: op failed:", e)
	}

	// The output check: every response was validated as it arrived; now
	// the digest and the in-process recomputation of a seeded sample.
	digest, problems := wl.check(o.plant)
	if load.failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d ops failed or were shed", load.failed, load.attempted))
	}
	digestFile := filepath.Join(o.out, "digests", fmt.Sprintf("%s-seed%d%s.txt", o.workload, o.seed, sizeTag(o.small)))
	problems = append(problems, compareDigest(digestFile, digest, host.Commit, len(problems) == 0)...)
	fmt.Fprintf(w, "fleetbench: digest workload=%s seed=%d %s\n", o.workload, o.seed, digest)

	res := result{Attempted: load.attempted, Failed: load.failed, Metrics: map[string]metric{}}
	info := map[string]any{"host": host, "workload": o.workload, "seed": o.seed, "seconds": o.seconds, "digest": digest, "setup_s_each": setupTimes}
	if !o.trace {
		// Host interference (CPU stolen by the hypervisor, busy neighbours)
		// only ever slows the fleet, in stretches of seconds that can cover
		// most of a run, so each figure is taken from the best quartile of
		// the run's windows: the nearest-rank p75 of throughput and p25 of
		// latency and CPU time.  A run of one window reports that window.
		var rate, p50, pTail, cpuPerOp []float64
		samples, beyond := 0, 0
		for _, win := range load.windows {
			lat := durationsMS(win.lat)
			n := float64(len(lat))
			rate = append(rate, n/win.seconds)
			p50 = append(p50, percentile(lat, 50))
			pTail = append(pTail, percentile(lat, tailPercentile))
			cpuPerOp = append(cpuPerOp, 1000*win.cpu/math.Max(n, 1))
			samples += len(lat)
			beyond += len(lat) - int(math.Ceil(tailPercentile/100*n))
		}
		res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
		res.Metrics["ops_per_s"] = metric{percentile(rate, 75), "1/s"}
		res.Metrics["latency_p50_ms"] = metric{percentile(p50, 25), "ms"}
		res.Metrics["latency_tail_ms"] = metric{percentile(pTail, 25), "ms"}
		res.Metrics["cpu_ms_per_op"] = metric{percentile(cpuPerOp, 25), "ms"}
		res.Metrics["peak_rss_mb"] = metric{peakMB, "MB"}
		res.Metrics["served_frac"] = metric{float64(load.attempted-load.failed) / float64(max(load.attempted, 1)), "fraction"}
		fmt.Fprintf(w, "fleetbench: figures are the best quartile of %d windows; latency_tail_ms is p%g over %d samples (%d beyond it, %d a window); setup_s is the median of %d set-ups\n",
			len(load.windows), tailPercentile, samples, beyond, beyond/len(load.windows), len(setupTimes))
		info["windows"], info["tail_percentile"], info["samples"], info["samples_beyond_tail"] = len(load.windows), tailPercentile, samples, beyond
	} else {
		layers, spanFile, err := perLayer(ctx, o, wl, before, after)
		if err != nil {
			return result{}, err
		}
		res.Metrics = layers.metrics
		problems = append(problems, layers.problems...)
		fmt.Fprintf(w, "fleetbench: %d spans written to %s\n", layers.spans, spanFile)
	}
	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "fleetbench: output check:", p)
	}
	info["problems"], info["result"] = problems, res
	if err := writeJSONFile(filepath.Join(o.out, "results", fmt.Sprintf("%s-seed%d-trace%d%s.json", o.workload, o.seed, boolInt(o.trace), sizeTag(o.small))), info); err != nil {
		return result{}, err
	}
	return res, nil
}

// compareDigest requires the digest to equal the one an earlier run of this
// workload and seed recorded in the same tree: a speed-only change must leave
// every simulated statistic unchanged.  Only a clean run (no failed op, no
// output-check problem) records a digest, so a bad run never becomes the
// reference; the file names the commit that recorded it.
func compareDigest(path, digest, commit string, clean bool) []string {
	prev, err := os.ReadFile(path)
	if err == nil {
		prevDigest, prevCommit, _ := strings.Cut(strings.TrimSpace(string(prev)), "\n")
		if prevDigest != digest {
			return []string{fmt.Sprintf("output digest %s (commit %s) differs from %s recorded by commit %s in %s", digest, commit, prevDigest, prevCommit, path)}
		}
		return nil
	}
	if !clean {
		return nil
	}
	if err := os.WriteFile(path, []byte(digest+"\n"+commit+"\n"), 0o644); err != nil {
		return []string{fmt.Sprintf("recording digest: %v", err)}
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sizeTag(small bool) string {
	if small {
		return "-small"
	}
	return ""
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
