package sim

import (
	"fmt"

	"dataproxy/internal/arch"
	"dataproxy/internal/parallel"
	"dataproxy/internal/perf"
)

// Task is one unit of work scheduled on the cluster.
type Task struct {
	// Fn performs the work, reporting it to the Exec.
	Fn func(ex *Exec)
	// Node pins the task to a specific node index; -1 distributes tasks
	// round-robin across the worker nodes.
	Node int
	// Scale extrapolates the task's counters and I/O time by this factor,
	// used when the task processes only a sample of its configured data.
	// Zero or a negative value means 1 (no extrapolation).
	Scale float64
}

// StageResult summarises one cluster execution stage.
type StageResult struct {
	Name           string
	Seconds        float64
	Tasks          int
	PerNodeSeconds map[int]float64
}

// Cluster is a simulated deployment of Nodes sharing a virtual clock.
type Cluster struct {
	cfg         ClusterConfig
	fingerprint string
	nodes       []*Node
	elapsed     float64
	stages      []StageResult
}

// NewCluster builds a cluster from its configuration.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg, fingerprint: fmt.Sprintf("%+v", cfg)}
	for i := 0; i < cfg.Nodes; i++ {
		m, err := arch.NewMachine(cfg.Profile)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, &Node{id: i, cluster: c, machine: m})
	}
	return c, nil
}

// MustNewCluster is like NewCluster but panics on configuration errors; it
// is intended for the stock configurations.
func MustNewCluster(cfg ClusterConfig) *Cluster {
	c, err := NewCluster(cfg)
	if err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	return c
}

// Config returns the cluster configuration (with defaults filled in).
func (c *Cluster) Config() ClusterConfig { return c.cfg }

// Fingerprint returns the deterministic string form of the cluster's full
// configuration, computed once at construction.  It is what the measurement
// memo keys embed: the configuration is immutable after NewCluster, so
// callers on the serving hot path can append the cached string instead of
// re-formatting the whole config per request.
func (c *Cluster) Fingerprint() string { return c.fingerprint }

// Clone returns an independent cluster with the same configuration in its
// reset state (fresh nodes, zero elapsed time, no recorded stages).  Because
// every measurement entry point resets its cluster first, running the same
// deterministic workload on a clone produces bit-identical reports to running
// it on the original — which is what lets the auto-tuner fan independent
// evaluations out over the worker pool, one clone per in-flight evaluation,
// without sharing any per-node cache or allocator state.
func (c *Cluster) Clone() *Cluster {
	clone, err := NewCluster(c.cfg)
	if err != nil {
		// c.cfg was validated when c itself was built, so this is unreachable
		// short of memory corruption.
		panic(fmt.Sprintf("sim: cloning validated cluster: %v", err))
	}
	return clone
}

// Nodes returns all nodes, master first.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Master returns the master node, or the single node of a one-node cluster.
func (c *Cluster) Master() *Node { return c.nodes[0] }

// Workers returns the worker (slave) nodes.
func (c *Cluster) Workers() []*Node {
	return c.nodes[c.cfg.MasterNodes:]
}

// Elapsed returns the virtual time in seconds accumulated so far.
func (c *Cluster) Elapsed() float64 { return c.elapsed }

// Stages returns the per-stage results recorded so far.
func (c *Cluster) Stages() []StageResult { return c.stages }

// AdvanceTime adds fixed virtual time (framework startup, coordination
// barriers, heartbeat intervals) to the cluster clock.
func (c *Cluster) AdvanceTime(name string, seconds float64) {
	if seconds <= 0 {
		return
	}
	c.elapsed += seconds
	c.stages = append(c.stages, StageResult{Name: name, Seconds: seconds})
}

// Reset restores the cluster to its construction state: zero elapsed time,
// reset nodes (counters cleared, address allocators rewound, cache slabs
// zeroed, branch predictors and LRU clocks back to their initial values) and
// no recorded stages.  A reset cluster behaves bit-identically to a fresh
// Clone — the ClusterPool property tests enforce this — while keeping every
// allocation (cache line slabs, predictor tables, node structs) alive for
// reuse; only the stage-result slice is truncated in place.
func (c *Cluster) Reset() {
	c.elapsed = 0
	c.stages = c.stages[:0]
	for _, n := range c.nodes {
		n.Reset()
	}
}

// Run executes the tasks, distributing unpinned tasks round-robin across the
// worker nodes, and advances the cluster clock by the stage's virtual
// duration (the slowest node's time, with CPU and I/O partially overlapped).
// Tasks execute deterministically; concurrency is modelled in virtual time,
// while in host time independent nodes' task groups run concurrently on the
// parallel engine.
func (c *Cluster) Run(stage string, tasks []Task) StageResult {
	return c.RunStage(stage, tasks, 0)
}

// RunStage is like Run but takes an explicit per-node parallelism for the
// virtual-time composition.  It is used when the executed tasks are a
// scaled-up sample of a larger real task population (e.g. eight sampled map
// tasks standing in for eight hundred): the counters extrapolate through the
// task Scale factors, while parallelismPerNode describes how many real tasks
// would have run concurrently on each node.  A value of zero derives the
// parallelism from the number of sampled tasks per node, which is the right
// default when tasks are not scaled.
func (c *Cluster) RunStage(stage string, tasks []Task, parallelismPerNode int) StageResult {
	// A cluster stage is a one-lane stage accounted into the nodes
	// themselves.
	lane := make([]BatchTask, len(tasks))
	scales := make([]float64, len(tasks))
	for i, t := range tasks {
		scales[i] = t.Scale
		lane[i] = BatchTask{Fn: t.Fn, Node: t.Node, Scales: scales[i : i+1]}
	}
	groups := c.runTasks(lane, 1, func(n *Node, _ int, cnt perf.Counters, disk, net float64) {
		n.counters.Add(cnt)
		n.diskSeconds += disk
		n.netSeconds += net
	})
	res := newStageResult(stage, len(tasks))
	for _, g := range groups {
		g.node.cpuSeconds += g.compose(&res, c, 0, parallelismPerNode)
	}
	c.elapsed += res.Seconds
	c.stages = append(c.stages, res)
	return res
}

// stageGroup is one node's share of a stage: its tasks in stage order and,
// per lane, their summed cycles and I/O seconds.
type stageGroup struct {
	node    *Node
	tasks   []BatchTask
	cycles  []uint64
	diskSec []float64
	netSec  []float64
}

// runTasks is the one task loop of Cluster.RunStage and Batch.RunStage.
// It groups the tasks by the node they resolve to in first-appearance
// order, preserving the per-node task order of the round-robin
// distribution.  Each group executes sequentially on one host goroutine,
// because its Execs share the node's cache hierarchy, address allocator
// and core slots; independent nodes run concurrently on the parallel
// engine.  Every node sees exactly the task sequence (and therefore the
// allocation and cache-access sequence) it would see under fully
// sequential execution, so results are independent of the host worker
// count.
//
// Each task's trace runs once, unscaled.  Its raw totals are then
// accounted into each of the k lanes under the task's factor for that
// lane: account receives them (the node itself for a Cluster, a shadow
// lane for a Batch; it is called concurrently for distinct nodes), and the
// node's group sums them for the stage's time composition.
func (c *Cluster) runTasks(tasks []BatchTask, k int, account func(n *Node, lane int, cnt perf.Counters, disk, net float64)) []*stageGroup {
	workers := c.Workers()
	if len(workers) == 0 {
		workers = c.nodes
	}
	var groups []*stageGroup
	byNode := make(map[int]*stageGroup)
	for i, t := range tasks {
		node := c.nodeForTask(t.Node, i, workers)
		g := byNode[node.id]
		if g == nil {
			g = &stageGroup{
				node:    node,
				cycles:  make([]uint64, k),
				diskSec: make([]float64, k),
				netSec:  make([]float64, k),
			}
			byNode[node.id] = g
			groups = append(groups, g)
		}
		g.tasks = append(g.tasks, t)
	}

	parallel.For(len(groups), 1, func(lo, hi int) {
		for _, g := range groups[lo:hi] {
			for _, t := range g.tasks {
				ex := newExec(g.node, g.node.execSeq)
				g.node.execSeq++
				if t.Fn != nil {
					t.Fn(ex)
				}
				ex.finishRaw()
				for lane := 0; lane < k; lane++ {
					s := laneScale(t.Scales, lane)
					cnt := ex.counters.ScaledBy(s)
					disk, net := ex.diskSeconds, ex.netSeconds
					if s != 1 {
						disk *= s
						net *= s
					}
					account(g.node, lane, cnt, disk, net)
					g.cycles[lane] += cnt.Cycles
					g.diskSec[lane] += disk
					g.netSec[lane] += net
				}
			}
		}
	})
	return groups
}

// laneScale resolves a task's extrapolation factor in one lane: a missing
// or non-positive entry means 1 (no extrapolation).
func laneScale(scales []float64, lane int) float64 {
	if lane < len(scales) && scales[lane] > 0 {
		return scales[lane]
	}
	return 1
}

func newStageResult(stage string, tasks int) StageResult {
	return StageResult{Name: stage, Tasks: tasks, PerNodeSeconds: make(map[int]float64)}
}

// compose records the group's node time in one lane of a stage: its CPU
// time spread over the node's task slots, partially overlapped with its
// I/O time.  The stage takes the slowest node's time.  It returns the CPU
// seconds.
func (g *stageGroup) compose(res *StageResult, c *Cluster, lane, parallelismPerNode int) float64 {
	p := c.cfg.Profile
	slots := len(g.tasks)
	if parallelismPerNode > 0 {
		slots = parallelismPerNode
	}
	if cores := p.TotalCores(); slots > cores {
		slots = cores
	}
	if slots < 1 {
		slots = 1
	}
	cpuSec := float64(g.cycles[lane]) / p.FrequencyHz / float64(slots)
	nodeSec := composeTime(cpuSec, g.diskSec[lane]+g.netSec[lane], c.cfg.IOOverlapFactor)
	res.PerNodeSeconds[g.node.id] = nodeSec
	if nodeSec > res.Seconds {
		res.Seconds = nodeSec
	}
	return cpuSec
}

// nodeForTask resolves the node a task pinned to node (or -1) runs on.
func (c *Cluster) nodeForTask(node, i int, workers []*Node) *Node {
	if node >= 0 && node < len(c.nodes) {
		return c.nodes[node]
	}
	return workers[i%len(workers)]
}

// composeTime combines CPU and I/O time with partial overlap.
func composeTime(cpu, io, overlap float64) float64 {
	hi, lo := cpu, io
	if io > cpu {
		hi, lo = io, cpu
	}
	return hi + (1-overlap)*lo
}

// RunTasks is a convenience wrapper that builds n unpinned tasks invoking fn
// with the task index and runs them as one stage.
func (c *Cluster) RunTasks(stage string, n int, scale float64, fn func(i int, ex *Exec)) StageResult {
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		tasks[i] = Task{Node: -1, Scale: scale, Fn: func(ex *Exec) { fn(i, ex) }}
	}
	return c.Run(stage, tasks)
}

// RunOnNode runs a single task pinned to the given node as its own stage.
func (c *Cluster) RunOnNode(stage string, node int, scale float64, fn func(ex *Exec)) StageResult {
	return c.Run(stage, []Task{{Node: node, Scale: scale, Fn: fn}})
}

// Report summarises the execution observed so far: total virtual runtime,
// aggregate counters over the worker nodes, and the metric vector derived
// from the average worker-node counters (the paper reports the average value
// across all slave nodes).
type Report struct {
	Name        string
	ClusterName string
	Runtime     float64
	Aggregate   perf.Counters
	PerNode     []perf.Counters
	Metrics     perf.Metrics
	Stages      []StageResult
}

// Report builds the execution report under the given name.
func (c *Cluster) Report(name string) Report {
	rep := Report{
		Name:        name,
		ClusterName: c.cfg.Name,
		Runtime:     c.elapsed,
		Stages:      append([]StageResult(nil), c.stages...),
	}
	workers := c.Workers()
	active := 0
	for _, n := range workers {
		cnt := n.Counters()
		rep.PerNode = append(rep.PerNode, cnt)
		rep.Aggregate.Add(cnt)
		if !cnt.IsZero() {
			active++
		}
	}
	if active == 0 {
		active = 1
	}
	avg := rep.Aggregate
	avg.Scale(1 / float64(active))
	rep.Metrics = perf.FromCounters(avg, rep.Runtime)
	return rep
}

// Speedup returns how many times faster the proxy execution is than the real
// one (Equation 4 of the paper generalised to any two runtimes).
func Speedup(realSeconds, proxySeconds float64) float64 {
	if proxySeconds <= 0 {
		return 0
	}
	return realSeconds / proxySeconds
}
