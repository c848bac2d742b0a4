package core

import (
	"fmt"

	"dataproxy/internal/motif"
	"dataproxy/internal/sim"
)

// runSolo evaluates one setting without the lane engine: it drives the
// cluster directly, one sim.Cluster stage per input and edge, and returns
// the cluster's own report.  It is the independent reference the lane
// property tests compare RunBatch against.
func runSolo(cluster *sim.Cluster, b *Benchmark, setting Setting) (sim.Report, error) {
	if err := b.Validate(); err != nil {
		return sim.Report{}, err
	}
	if setting == nil {
		setting = DefaultSetting()
	}
	if err := setting.Validate(); err != nil {
		return sim.Report{}, err
	}
	cluster.Reset()

	p := b.Base.Apply(setting)
	sampleBytes := b.effectiveSampleBytes(p)

	// The proxy benchmark is pinned to one node.
	node := 0
	if workers := cluster.Workers(); len(workers) > 0 {
		node = workers[0].ID()
	}

	datasets := map[string]*motif.Dataset{}
	edges, err := b.sortedEdges()
	if err != nil {
		return sim.Report{}, err
	}

	// Generate the sampled input data set (with the original workload's data
	// type and distribution) as a lightly-accounted stage of its own: the
	// proxy reads its configured input volume from local storage, so the
	// sampled read is extrapolated to DataSize bytes.
	var input *motif.Dataset
	inputScale := 1.0
	// Big data proxies stream their whole configured input volume from disk;
	// AI proxies only read the sampled batch (the paper measures near-zero
	// disk traffic for the AI workloads).
	if b.SpillIntermediate && p.DataSize > 0 && sampleBytes > 0 {
		inputScale = float64(p.DataSize) / float64(sampleBytes)
	}
	cluster.RunOnNode(b.Name+":input", node, inputScale, func(ex *sim.Exec) {
		ex.SetCodeFootprint(b.codeFootprint(), proxyJumpsPer1k)
		input = b.Input(7, sampleBytes, p)
		if input == nil {
			input = &motif.Dataset{}
		}
		ex.ReadDisk(input.SizeBytes())
	})
	datasets[InputNode] = input

	for _, e := range edges {
		in := datasets[e.From]
		if in == nil {
			return sim.Report{}, fmt.Errorf("core: benchmark %s edge %s consumes missing data set %q", b.Name, e.Name, e.From)
		}
		out, err := b.runEdge(cluster, node, e, in, p, setting)
		if err != nil {
			return sim.Report{}, err
		}
		datasets[e.To] = out
	}
	rep := cluster.Report(b.Name)
	if err := checkReportInvariants(b, rep); err != nil {
		return sim.Report{}, err
	}
	return rep, nil
}

// runEdge executes one motif edge: the input sample is split into chunks of
// at most ChunkSize bytes, distributed over NumTasks worker tasks, and the
// motif's counters are extrapolated so the edge represents
// DataSize * Weight bytes of processed data.
func (b *Benchmark) runEdge(cluster *sim.Cluster, node int, e Edge, in *motif.Dataset, p Params, setting Setting) (*motif.Dataset, error) {
	impl, err := motif.Lookup(e.Impl)
	if err != nil {
		return nil, err
	}
	numTasks := p.NumTasks
	if numTasks < 1 {
		numTasks = 1
	}
	inBytes := in.SizeBytes()
	if inBytes == 0 {
		inBytes = 1
	}
	// Work volume this edge stands for.
	work := float64(p.DataSize) * e.Weight * setting.Get("weight")
	if p.DataSize == 0 {
		work = float64(p.TotalSize) * e.Weight * setting.Get("weight")
	}
	if work <= 0 {
		work = float64(inBytes)
	}
	scale := work / float64(inBytes)
	if scale < 1 {
		scale = 1
	}

	// Split the sample across tasks, honouring the chunk size.
	shares := splitDataset(in, numTasks)
	outputs := make([]*motif.Dataset, len(shares))
	tasks := make([]sim.Task, len(shares))
	stageName := b.Name + ":" + e.name()
	for i := range shares {
		i := i
		share := shares[i]
		taskScale := scale
		if len(shares) == 1 && numTasks > 1 {
			// Unsplittable data set: every task would process the whole
			// sample, so spread the represented work across them instead.
			taskScale = scale / float64(numTasks)
		}
		tasks[i] = sim.Task{Node: node, Scale: taskScale, Fn: func(ex *sim.Exec) {
			ex.SetCodeFootprint(b.codeFootprint(), proxyJumpsPer1k)
			outputs[i] = runChunked(ex, impl, share, p.ChunkSize)
			if b.SpillIntermediate && outputs[i] != nil {
				ex.WriteDisk(outputs[i].SizeBytes())
			}
		}}
	}
	cluster.RunStage(stageName, tasks, numTasks)

	merged := mergeDatasets(outputs)
	return merged, nil
}
