package arch

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refCache is the slow reference cache model retained for property-checking
// the flat engine: the original pointer-chasing design with a slice of
// slices per set, boolean valid/dirty flags, recursive level forwarding and
// the same monotone per-cache access tick the flat engine uses.  It is
// deliberately written in the naive style so the two implementations share
// no code.
type refCache struct {
	cfg      CacheConfig
	next     *refCache
	sets     [][]refLine
	hits     uint64
	misses   uint64
	tick     uint64
	setMask  uint64
	lineBits uint
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

func newRefCache(cfg CacheConfig, next *refCache) *refCache {
	c := &refCache{cfg: cfg, next: next}
	c.sets = make([][]refLine, cfg.Sets())
	for i := range c.sets {
		c.sets[i] = make([]refLine, cfg.Associativity)
	}
	c.lineBits = uint(bitsFor(cfg.LineBytes))
	c.setMask = uint64(cfg.Sets() - 1)
	return c
}

func (c *refCache) access(addr uint64, write bool, level int) AccessResult {
	tag := addr >> c.lineBits
	set := tag & c.setMask
	lines := c.sets[set]
	c.tick++

	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			c.hits++
			lines[i].lru = c.tick
			if write {
				lines[i].dirty = true
			}
			return AccessResult{HitLevel: level, Latency: c.cfg.LatencyCycles}
		}
	}

	c.misses++
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			break
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	lines[victim] = refLine{tag: tag, valid: true, dirty: write, lru: c.tick}

	res := AccessResult{HitLevel: 0, Latency: c.cfg.LatencyCycles}
	if c.next != nil {
		down := c.next.access(addr, write, level+1)
		res.HitLevel = down.HitLevel
		res.Latency += down.Latency
		res.MemoryBytes = down.MemoryBytes
	} else {
		res.MemoryBytes = c.cfg.LineBytes
	}
	return res
}

// state returns the resident lines of every set as sorted (tag, dirty)
// pairs, a representation that is independent of which way a line occupies.
func (c *refCache) state() [][]uint64 {
	out := make([][]uint64, len(c.sets))
	for s := range c.sets {
		for _, l := range c.sets[s] {
			if l.valid {
				v := l.tag << 1
				if l.dirty {
					v |= 1
				}
				out[s] = append(out[s], v)
			}
		}
		sort.Slice(out[s], func(i, j int) bool { return out[s][i] < out[s][j] })
	}
	return out
}

// state is the flat engine's counterpart of refCache.state.
func (c *Cache) state() [][]uint64 {
	sets := c.lines() / c.ways
	out := make([][]uint64, sets)
	for s := 0; s < sets; s++ {
		for w := 0; w < c.ways; w++ {
			tag, _ := c.way(s*c.ways + w)
			t := *tag
			if t&lineValid != 0 {
				v := (t >> lineTagShift) << 1
				if t&lineDirty != 0 {
					v |= 1
				}
				out[s] = append(out[s], v)
			}
		}
		sort.Slice(out[s], func(i, j int) bool { return out[s][i] < out[s][j] })
	}
	return out
}

// slots returns every way of every set in slot order, as the reference
// model's line type: the exact layout AppendState encodes.
func (c *refCache) slots() []refLine {
	var out []refLine
	for _, set := range c.sets {
		out = append(out, set...)
	}
	return out
}

// slots is the flat engine's counterpart of refCache.slots.
func (c *Cache) slots() []refLine {
	out := make([]refLine, c.lines())
	for i := range out {
		tag, tick := c.way(i)
		t := *tag
		out[i] = refLine{tag: t >> lineTagShift, valid: t&lineValid != 0, dirty: t&lineDirty != 0, lru: *tick}
	}
	return out
}

func equalState(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// refHierarchy builds the three-level data-side chain of a profile in both
// implementations.
func refHierarchy(p Profile) (*Cache, *refCache) {
	l3 := NewCache(p.L3, nil)
	l2 := NewCache(p.L2, l3)
	l1 := NewCache(p.L1D, l2)
	r3 := newRefCache(p.L3, nil)
	r2 := newRefCache(p.L2, r3)
	r1 := newRefCache(p.L1D, r2)
	return l1, r1
}

func compareChains(t *testing.T, label string, flat *Cache, ref *refCache) {
	t.Helper()
	for lvl := 0; flat != nil; lvl++ {
		if flat.Hits() != ref.hits || flat.Misses() != ref.misses {
			t.Fatalf("%s level %d: flat hits/misses %d/%d, reference %d/%d",
				label, lvl+1, flat.Hits(), flat.Misses(), ref.hits, ref.misses)
		}
		if !equalState(flat.state(), ref.state()) {
			t.Fatalf("%s level %d: resident line state diverged (victim choices differ)", label, lvl+1)
		}
		// The same lines in the same ways with the same ticks: victims are
		// chosen by the same rule, not just equivalent ones.
		if !slices.Equal(flat.slots(), ref.slots()) {
			t.Fatalf("%s level %d: way layout or LRU ticks diverged", label, lvl+1)
		}
		flat, ref = flat.next, ref.next
	}
}

// traceProfiles returns the machine profiles the equivalence properties run
// against, covering both generations used in the paper.
func traceProfiles() map[string]Profile {
	return map[string]Profile{"westmere": Westmere(), "haswell": Haswell()}
}

// Property: on randomized word-granular traces the flat engine and the slow
// reference model agree access-by-access on the level that hit, the latency
// and the memory traffic, and end with identical per-level hit/miss counts
// and resident lines (i.e. identical victim choices).
func TestFlatEngineMatchesReferenceOnWordTraces(t *testing.T) {
	for name, p := range traceProfiles() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			flat, ref := refHierarchy(p)
			// Mix of hot reuse (small working set), streaming and random
			// far accesses, with occasional writes.
			for i := 0; i < 60000; i++ {
				var addr uint64
				switch rng.Intn(3) {
				case 0:
					addr = uint64(rng.Intn(32 * 1024)) // L1-sized hot set
				case 1:
					addr = uint64(i) * 8 // streaming
				default:
					addr = uint64(rng.Intn(64 * 1024 * 1024)) // far random
				}
				write := rng.Intn(4) == 0
				got := access(flat, addr, write)
				want := ref.access(addr, write, 1)
				if got != want {
					t.Fatalf("access %d addr %#x write=%v: flat %+v, reference %+v", i, addr, write, got, want)
				}
			}
			compareChains(t, name, flat, ref)
		})
	}
}

// Property: on a fetch-shaped trace — sequential line steps with frequent
// random jumps through a 64 KiB code footprint, twice the L1I, so most
// probes miss L1I and hit L2 — single-line AccessLine probes of the L1I chain
// agree with the reference model probe by probe, and both chains end with
// identical counts and resident lines.  This exercises the miss path (victim
// scan) the data-shaped traces above mostly skip, on both the 4-way
// (Westmere) and 8-way (Haswell) L1I.
func TestFlatEngineMatchesReferenceOnFetchTraces(t *testing.T) {
	const footprint = 64 * 1024
	for name, p := range traceProfiles() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			flat := NewCache(p.L1I, NewCache(p.L2, NewCache(p.L3, nil)))
			ref := newRefCache(p.L1I, newRefCache(p.L2, newRefCache(p.L3, nil)))
			const base = 1 << 30
			pc := uint64(0)
			for i := 0; i < 60000; i++ {
				if rng.Intn(4) == 0 {
					pc = uint64(rng.Intn(footprint))
				} else {
					pc = (pc + 64) % footprint
				}
				got := flat.AccessLine(base+pc, false)
				if want := ref.access(base+pc, false, 1).HitLevel; got != want {
					t.Fatalf("fetch %d pc %#x: flat level %d, reference %d", i, pc, got, want)
				}
			}
			if flat.Misses() < flat.Hits() {
				t.Fatalf("trace is not miss-heavy: L1I %d hits, %d misses", flat.Hits(), flat.Misses())
			}
			compareChains(t, name, flat, ref)
		})
	}
}

// Property: AccessLine is the single-line form of AccessRun — on twin
// hierarchies, AccessLine(addr, w) reports the level AccessRun(addr, 1, w)
// counts, and both leave identical state — for every outcome: a hit at
// each level and a miss to memory, for reads and writes alike.
func TestAccessLineMatchesOneLineAccessRun(t *testing.T) {
	for name, p := range traceProfiles() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			line, _ := refHierarchy(p)
			run, _ := refHierarchy(p)
			var seen [maxLevels][2]int // [level][write]
			for i := 0; i < 40000; i++ {
				// Working sets sized to each level, so every outcome occurs.
				var addr uint64
				switch rng.Intn(4) {
				case 0:
					addr = uint64(rng.Intn(16 * 1024))
				case 1:
					addr = uint64(rng.Intn(192 * 1024))
				case 2:
					addr = uint64(rng.Intn(8 * 1024 * 1024))
				default:
					addr = uint64(rng.Intn(1 << 30))
				}
				write := rng.Intn(3) == 0
				res := access(line, addr, write) // AccessLine plus configured latencies
				rr := run.AccessRun(addr, 1, write)

				want := RunResult{LineAccesses: 1, LatencyCycles: uint64(res.Latency), MemoryBytes: uint64(res.MemoryBytes)}
				if level := res.HitLevel; level > 0 {
					want.LevelHits[level-1] = 1
				} else {
					want.MemAccesses = 1
				}
				if rr != want {
					t.Fatalf("probe %d addr %#x write=%v: AccessLine %+v, AccessRun %+v", i, addr, write, res, rr)
				}
				w := 0
				if write {
					w = 1
				}
				seen[res.HitLevel][w]++
			}
			for level := 0; level <= line.depth; level++ {
				if seen[level][0] == 0 || seen[level][1] == 0 {
					t.Fatalf("level %d not covered for both reads and writes: %v", level, seen)
				}
			}
			for l, r := line, run; l != nil; l, r = l.next, r.next {
				if l.Hits() != r.Hits() || l.Misses() != r.Misses() || !equalState(l.state(), r.state()) {
					t.Fatalf("%s: AccessLine and AccessRun state diverged at %s", name, l.Config().Name)
				}
			}
		})
	}
}

// Property: AccessRun is equivalent to issuing one reference-model access for
// every line the run touches — identical per-level line hit/miss counts, latency,
// memory traffic and replacement state — on randomized run traces.
func TestAccessRunMatchesPerLineAccesses(t *testing.T) {
	for name, p := range traceProfiles() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			flat, ref := refHierarchy(p)
			lineBytes := uint64(p.L1D.LineBytes)
			for i := 0; i < 4000; i++ {
				addr := uint64(rng.Intn(16 * 1024 * 1024))
				bytes := uint64(1 + rng.Intn(8*1024))
				write := rng.Intn(4) == 0

				rr := flat.AccessRun(addr, bytes, write)

				var want RunResult
				last := (addr + bytes - 1) &^ (lineBytes - 1)
				for a := addr &^ (lineBytes - 1); ; a += lineBytes {
					res := ref.access(a, write, 1)
					want.LineAccesses++
					want.LatencyCycles += uint64(res.Latency)
					if res.HitLevel > 0 {
						want.LevelHits[res.HitLevel-1]++
					} else {
						want.MemAccesses++
						want.MemoryBytes += uint64(res.MemoryBytes)
					}
					if a == last {
						break
					}
				}
				if rr != want {
					t.Fatalf("run %d addr %#x bytes %d write=%v: flat %+v, reference %+v", i, addr, bytes, write, rr, want)
				}
			}
			compareChains(t, name, flat, ref)
		})
	}
}

// Property: driving the hierarchy word-by-word and line-by-line produces the
// same replacement decisions — the resident lines after a trace of
// sequential runs are identical, even though the per-word drive records the
// intra-line hits the batched drive accounts for arithmetically.
func TestBatchedAndPerWordReplacementEquivalence(t *testing.T) {
	for name, p := range traceProfiles() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			batched, _ := refHierarchy(p)
			perWord, _ := refHierarchy(p)
			for i := 0; i < 3000; i++ {
				// Word-aligned runs of whole words, so the per-word drive
				// touches exactly the lines the batched drive probes.
				addr := 8 * uint64(rng.Intn(1024*1024))
				bytes := uint64(8 * (1 + rng.Intn(512)))
				write := rng.Intn(5) == 0
				batched.AccessRun(addr, bytes, write)
				for off := uint64(0); off < bytes; off += 8 {
					access(perWord, addr+off, write)
				}
			}
			for b, w := batched, perWord; b != nil; b, w = b.next, w.next {
				if !equalState(b.state(), w.state()) {
					t.Fatalf("%s: batched and per-word replacement state diverged", name)
				}
			}
		})
	}
}
