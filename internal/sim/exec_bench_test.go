package sim

import (
	"testing"

	"dataproxy/internal/arch"
)

func benchExec(b *testing.B) *Exec {
	b.Helper()
	c, err := NewCluster(SingleNode(arch.Westmere(), 0))
	if err != nil {
		b.Fatal(err)
	}
	n := c.Nodes()[0]
	return newExec(n, 0)
}

// accessPerWord replicates the pre-batching Exec.access hot path — one
// AccessLine probe per machine word, capped at MaxModelOpsPerCall words with
// a strided walk — so BenchmarkExecLoad can compare the retired per-word
// driving style against the batched AccessRun path on the same trace.
func (e *Exec) accessPerWord(r Region, off, size uint64, write bool) {
	ops := wordOps(size)
	if write {
		e.counters.StoreInstrs += ops
	} else {
		e.counters.LoadInstrs += ops
	}
	e.counters.L1DAccesses += ops
	e.countInstr(ops)

	model := ops
	if model > uint64(e.cfg.MaxModelOpsPerCall) {
		model = uint64(e.cfg.MaxModelOpsPerCall)
	}
	stride := uint64(wordBytes)
	if model < ops {
		stride = (size / model) / wordBytes * wordBytes
		if stride < wordBytes {
			stride = wordBytes
		}
	}
	addr := off
	for i := uint64(0); i < model; i++ {
		level := e.core.Caches.L1D.AccessLine(r.Addr(addr), write)
		e.data.recordLine(level, 1, e.memLine, write)
		addr += stride
	}
}

// Each Exec.Load trace replays sequential 4 KB reads walking a region.  The
// hot trace re-streams a 128 KB (L2-resident) working set — the shape of the
// motifs' inner loops over a matrix tile or centroid block, where the
// batched path pays one cheap probe per line instead of eight word probes.
// The stream trace walks a 16 MB (L3-straining) region where every line
// probe walks deep into the hierarchy on either path.
const execBenchLoadBytes = 4096

func benchmarkExecLoadTrace(b *testing.B, regionBytes uint64, load func(e *Exec, r Region, off, size uint64)) {
	e := benchExec(b)
	r := e.node.Alloc(regionBytes)
	var off uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load(e, r, off, execBenchLoadBytes)
		off = (off + execBenchLoadBytes) % regionBytes
	}
}

func BenchmarkExecLoad(b *testing.B) {
	perword := func(e *Exec, r Region, off, size uint64) { e.accessPerWord(r, off, size, false) }
	batched := func(e *Exec, r Region, off, size uint64) { e.Load(r, off, size) }
	for _, trace := range []struct {
		name        string
		regionBytes uint64
	}{
		{"hot", 128 << 10},
		{"stream", 16 << 20},
	} {
		b.Run(trace.name+"/perword", func(b *testing.B) {
			benchmarkExecLoadTrace(b, trace.regionBytes, perword)
		})
		b.Run(trace.name+"/batched", func(b *testing.B) {
			benchmarkExecLoadTrace(b, trace.regionBytes, batched)
		})
	}
}

// execBenchFetchInstrs is the instruction count of one Exec.Int call in
// BenchmarkExecFetch: 4096 fetch intervals at the default sample rate, so
// the call hits the MaxModelFetchesPerCall cap and each modelled fetch
// stands for enough real ones to always jump.
const execBenchFetchInstrs = 1 << 16

// BenchmarkExecFetch drives the instruction-fetch model the way bulk
// instruction counting does on a cold request: each op is one Exec.Int call
// on a fresh Exec with the default 64 KiB code footprint, whose capped,
// spread-out fetches jump at random through a footprint twice the L1I size,
// so most single-line probes miss L1I.
func BenchmarkExecFetch(b *testing.B) {
	e := benchExec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Int(execBenchFetchInstrs)
	}
}
