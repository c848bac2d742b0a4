package sim

import "dataproxy/internal/perf"

// BatchTask is one unit of work of a lockstep batch stage: the task's trace
// is executed once and accounted into every lane of the batch under that
// lane's extrapolation factor.
type BatchTask struct {
	// Fn performs the work, reporting it to the shared Exec.
	Fn func(ex *Exec)
	// Node pins the task to a specific node index; -1 distributes tasks
	// round-robin across the worker nodes, like Task.Node.
	Node int
	// Scales holds one extrapolation factor per lane.  A nil slice, a
	// missing entry or a non-positive entry means 1, like Task.Scale.
	Scales []float64
}

// Batch executes stages on a cluster once while accounting K settings'
// counter lanes in lockstep.  The cluster's own nodes supply the cache
// hierarchy, address allocator and core slots, but the per-node counters,
// virtual time and stage results are shadowed per lane in the batch, so the
// cluster's accumulated state is neither advanced nor consulted: lane
// reports come from Batch.Report.  Lanes are independent: lane i depends on
// the shared trace and its own factors only.
type Batch struct {
	c *Cluster
	k int

	// Per node-id (node ids are the nodes' positions) per-lane accounting.
	counters []perf.CounterBatch

	elapsed []float64
	stages  [][]StageResult
}

// NewBatch prepares a K-lane batch on the cluster and resets the cluster so
// the shared trace starts from the same state a solo Run would.
func NewBatch(c *Cluster, k int) *Batch {
	if k < 1 {
		k = 1
	}
	c.Reset()
	bt := &Batch{
		c:        c,
		k:        k,
		counters: make([]perf.CounterBatch, len(c.nodes)),
		elapsed:  make([]float64, k),
		stages:   make([][]StageResult, k),
	}
	for i := range bt.counters {
		bt.counters[i] = perf.NewCounterBatch(k)
	}
	return bt
}

// RunStage executes the tasks once and accounts the stage into every lane:
// the same task loop and time composition as Cluster.RunStage, with each
// lane's counters, virtual time and stage results shadowed in the batch.
func (bt *Batch) RunStage(stage string, tasks []BatchTask, parallelismPerNode int) {
	groups := bt.c.runTasks(tasks, bt.k, func(n *Node, lane int, cnt perf.Counters, _, _ float64) {
		bt.counters[n.id].Lane(lane).Add(cnt)
	})
	for lane := 0; lane < bt.k; lane++ {
		res := newStageResult(stage, len(tasks))
		for _, g := range groups {
			g.compose(&res, bt.c, lane, parallelismPerNode)
		}
		bt.elapsed[lane] += res.Seconds
		bt.stages[lane] = append(bt.stages[lane], res)
	}
}

// RunOnNode runs a single task pinned to the given node as its own stage,
// with one extrapolation factor per lane.
func (bt *Batch) RunOnNode(stage string, node int, scales []float64, fn func(ex *Exec)) {
	bt.RunStage(stage, []BatchTask{{Node: node, Scales: scales, Fn: fn}}, 0)
}

// Report builds lane's execution report under the given name, mirroring
// Cluster.Report over the lane's shadowed counters and virtual time.
func (bt *Batch) Report(name string, lane int) Report {
	c := bt.c
	rep := Report{
		Name:        name,
		ClusterName: c.cfg.Name,
		Runtime:     bt.elapsed[lane],
		Stages:      append([]StageResult(nil), bt.stages[lane]...),
	}
	workers := c.Workers()
	active := 0
	for _, n := range workers {
		cnt := bt.counters[n.id][lane]
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

// Reports builds one report per lane under the given name.
func (bt *Batch) Reports(name string) []Report {
	out := make([]Report, bt.k)
	for lane := 0; lane < bt.k; lane++ {
		out[lane] = bt.Report(name, lane)
	}
	return out
}
