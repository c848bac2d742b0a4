package arch

import "testing"

// benchHierarchy builds the Westmere data-side chain once per benchmark.
func benchHierarchy() *Cache {
	p := Westmere()
	l3 := NewCache(p.L3, nil)
	l2 := NewCache(p.L2, l3)
	return NewCache(p.L1D, l2)
}

// The two benchmarks drive the hierarchy with the same trace — repeated
// sequential 4 KB runs through a 1 MB window (an L2-straining working set) —
// once word-by-word through AccessLine and once line-granular through
// AccessRun, so ns/op directly compares the per-word and batched driving
// styles on identical work.
const (
	benchRunBytes    = 4096
	benchWindowBytes = 1 << 20
)

func BenchmarkCacheAccess(b *testing.B) {
	c := benchHierarchy()
	var addr uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for off := uint64(0); off < benchRunBytes; off += 8 {
			c.AccessLine(addr+off, false)
		}
		addr = (addr + benchRunBytes) % benchWindowBytes
	}
}

func BenchmarkCacheAccessRun(b *testing.B) {
	c := benchHierarchy()
	var addr uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AccessRun(addr, benchRunBytes, false)
		addr = (addr + benchRunBytes) % benchWindowBytes
	}
}
