package arch

import (
	"testing"
	"testing/quick"
)

func smallCacheConfig() CacheConfig {
	return CacheConfig{Name: "test", SizeBytes: 1024, LineBytes: 64, Associativity: 2, LatencyCycles: 3}
}

func TestCacheConfigSets(t *testing.T) {
	cfg := smallCacheConfig()
	if got, want := cfg.Sets(), 1024/(64*2); got != want {
		t.Fatalf("Sets() = %d, want %d", got, want)
	}
	if (CacheConfig{}).Sets() != 0 {
		t.Fatal("zero config should have 0 sets")
	}
}

func TestCacheConfigValidate(t *testing.T) {
	if err := smallCacheConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []CacheConfig{
		{Name: "zero-size", SizeBytes: 0, LineBytes: 64, Associativity: 2},
		{Name: "odd-line", SizeBytes: 1024, LineBytes: 63, Associativity: 2},
		{Name: "zero-assoc", SizeBytes: 1024, LineBytes: 64, Associativity: 0},
		{Name: "tiny", SizeBytes: 64, LineBytes: 64, Associativity: 2},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q should be rejected", cfg.Name)
		}
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(smallCacheConfig(), nil)
	res := access(c, 0x1000, false)
	if res.HitLevel != 0 {
		t.Fatalf("first access should miss, got hit level %d", res.HitLevel)
	}
	if res.MemoryBytes != 64 {
		t.Fatalf("last-level miss should fetch one line (64B), got %d", res.MemoryBytes)
	}
	res = access(c, 0x1000, false)
	if res.HitLevel != 1 {
		t.Fatalf("second access to same line should hit, got level %d", res.HitLevel)
	}
	if res.MemoryBytes != 0 {
		t.Fatalf("hit should not touch memory, got %d bytes", res.MemoryBytes)
	}
	// Same line, different offset within the 64-byte line.
	res = access(c, 0x1030, false)
	if res.HitLevel != 1 {
		t.Fatalf("access within same line should hit, got level %d", res.HitLevel)
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache: three distinct lines mapping to the same set must evict
	// the least recently used one.
	cfg := smallCacheConfig()
	c := NewCache(cfg, nil)
	sets := uint64(cfg.Sets())
	lineSize := uint64(cfg.LineBytes)
	// Addresses that map to set 0: multiples of sets*lineSize.
	a := uint64(0)
	b := sets * lineSize
	d := 2 * sets * lineSize

	access(c, a, false) // miss
	access(c, b, false) // miss
	access(c, a, false) // hit, refreshes a
	access(c, d, false) // miss, evicts b (LRU)
	if res := access(c, a, false); res.HitLevel != 1 {
		t.Fatal("a should still be cached")
	}
	if res := access(c, b, false); res.HitLevel != 0 {
		t.Fatal("b should have been evicted")
	}
}

func TestCacheHierarchyForwarding(t *testing.T) {
	l2 := NewCache(CacheConfig{Name: "L2", SizeBytes: 4096, LineBytes: 64, Associativity: 4, LatencyCycles: 10}, nil)
	l1 := NewCache(smallCacheConfig(), l2)

	res := access(l1, 0x40, false)
	if res.HitLevel != 0 {
		t.Fatalf("cold access should miss all levels, got %d", res.HitLevel)
	}
	if res.Latency != 3+10 {
		t.Fatalf("latency should accumulate across levels, got %d", res.Latency)
	}
	// L1 evict-then-rereference: fill L1 set with conflicting lines, then the
	// original should hit in L2 (level 2).
	sets := uint64(l1.Config().Sets())
	line := uint64(64)
	access(l1, 0x40+sets*line, false)
	access(l1, 0x40+2*sets*line, false)
	res = access(l1, 0x40, false)
	if res.HitLevel != 2 {
		t.Fatalf("expected L2 hit (level 2), got %d", res.HitLevel)
	}
}

func TestCacheHitRatioAndReset(t *testing.T) {
	c := NewCache(smallCacheConfig(), nil)
	if c.HitRatio() != 1 {
		t.Fatal("untouched cache should report hit ratio 1")
	}
	access(c, 0, false)
	access(c, 0, false)
	if got := c.HitRatio(); got != 0.5 {
		t.Fatalf("HitRatio = %g, want 0.5", got)
	}
	c.Reset()
	if c.Accesses() != 0 || c.HitRatio() != 1 {
		t.Fatal("Reset should clear statistics")
	}
	if res := access(c, 0, false); res.HitLevel != 0 {
		t.Fatal("Reset should clear contents too")
	}
}

// Property: hits + misses always equals the number of accesses and the hit
// ratio stays within [0,1] for arbitrary address streams.
func TestCacheAccountingProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := NewCache(smallCacheConfig(), nil)
		for _, a := range addrs {
			access(c, uint64(a), a%3 == 0)
		}
		if c.Hits()+c.Misses() != uint64(len(addrs)) {
			return false
		}
		hr := c.HitRatio()
		return hr >= 0 && hr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a working set that fits in the cache always hits after the first
// pass (temporal locality is rewarded).
func TestCacheSmallWorkingSetProperty(t *testing.T) {
	cfg := CacheConfig{Name: "p", SizeBytes: 8192, LineBytes: 64, Associativity: 8, LatencyCycles: 1}
	f := func(seed uint8) bool {
		c := NewCache(cfg, nil)
		// 16 lines, well within capacity (128 lines).
		base := uint64(seed) * 64
		for pass := 0; pass < 3; pass++ {
			for i := uint64(0); i < 16; i++ {
				access(c, base+i*64, false)
			}
		}
		// After the first pass the remaining 32 accesses must all hit.
		return c.Misses() == 16 && c.Hits() == 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingAccessMissesEveryLine(t *testing.T) {
	c := NewCache(smallCacheConfig(), nil)
	// Stream through 1 MB sequentially: every new line misses, accesses
	// within a line hit.
	var misses int
	for addr := uint64(0); addr < 1<<20; addr += 8 {
		res := access(c, addr, false)
		if res.HitLevel == 0 {
			misses++
		}
	}
	wantMisses := (1 << 20) / 64
	if misses != wantMisses {
		t.Fatalf("streaming misses = %d, want %d", misses, wantMisses)
	}
}
