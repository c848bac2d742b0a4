// Package arch models the micro-architectural components that determine the
// performance behaviour the paper measures with hardware counters: a
// set-associative cache hierarchy, a branch predictor, and machine profiles
// describing the Westmere (Xeon E5645) and Haswell (Xeon E5-2620 v3)
// processors used in the paper's evaluation, plus memory, disk and network
// bandwidth parameters.
//
// The models are deliberately light-weight (they are driven with sampled
// event streams by package sim) but faithful enough that relative behaviour
// — which workload is cache friendly, how much a bigger last-level cache or
// a wider issue width helps — emerges from the model rather than being
// hard-coded.
//
// The cache engine is the innermost loop of every simulated experiment, so
// it is organised for speed: each cache keeps one slab in which every set is
// a block of its tag words (tag/valid/dirty packed into a single word)
// followed by its LRU ticks, so the hit scan reads only tags and the victim
// scan only ticks.  The hierarchy is walked iteratively over a fixed level array
// rather than by recursion.  AccessRun probes a sequential run once per
// cache line instead of once per word; AccessLine probes a single line and
// returns just the level that hit.
package arch

import "fmt"

// CacheConfig describes one level of a set-associative cache.
type CacheConfig struct {
	Name          string // e.g. "L1D"
	SizeBytes     int    // total capacity
	LineBytes     int    // cache line size
	Associativity int    // ways per set
	LatencyCycles int    // access (hit) latency in cycles
}

// Sets returns the number of sets implied by the configuration.
func (c CacheConfig) Sets() int {
	if c.LineBytes <= 0 || c.Associativity <= 0 {
		return 0
	}
	sets := c.SizeBytes / (c.LineBytes * c.Associativity)
	if sets < 1 {
		sets = 1
	}
	return sets
}

// Validate reports configuration errors such as non-power-of-two line sizes
// or zero capacity.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 {
		return fmt.Errorf("arch: cache %s has non-positive size %d", c.Name, c.SizeBytes)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("arch: cache %s line size %d must be a positive power of two", c.Name, c.LineBytes)
	}
	if c.Associativity <= 0 {
		return fmt.Errorf("arch: cache %s associativity %d must be positive", c.Name, c.Associativity)
	}
	if c.SizeBytes < c.LineBytes*c.Associativity {
		return fmt.Errorf("arch: cache %s size %d smaller than one set", c.Name, c.SizeBytes)
	}
	return nil
}

// maxLevels is the deepest hierarchy a single probe walks (L1 → L2 → L3 →
// one spare).  Chains are fixed at construction, so the walk happens over a
// fixed-size array with no pointer chasing beyond the per-level cache.
const maxLevels = 4

// A tag word packs a line's address tag with its valid and dirty bits, so a
// lookup compares one machine word.
const (
	lineValid    = 1 << 0
	lineDirty    = 1 << 1
	lineTagShift = 2
)

// Cache is a set-associative cache with LRU replacement.  It tracks hits and
// misses; on a miss the access is forwarded to the next level (if any).
// Cache is not safe for concurrent use; package sim serialises access.
type Cache struct {
	cfg  CacheConfig
	next *Cache // next level, nil for last level before memory

	// slab holds every set as one block of 2*ways words: the set's tag
	// words, then its ticks (the cache's tick at each way's last use;
	// larger = more recently used).  Tags sit together, so the hit scan
	// reads no ticks; a set's halves share one block, so a set touches the
	// same host pages as with 16-byte ways, and a sparsely used slab stays
	// as small in RSS.  A way is invalid exactly when its tick is 0 — every
	// probe advances tick before stamping a way — so the victim scan reads
	// ticks alone: the first way with the smallest tick is the first
	// invalid way if there is one, else the least recently used.  LoadState
	// enforces the invariant.
	slab []uint64
	ways int

	// levels is this cache followed by the levels below it, fixed when the
	// cache is built; AccessLine iterates over it instead of recursing
	// through next pointers.
	levels [maxLevels]*Cache
	depth  int
	// latency[i] is the summed hit latency of levels[0..i], the cost of a
	// probe that stops at level i+1; memLine is the line size of the last
	// level, the bytes one miss of every level moves from memory.
	latency [maxLevels]uint64
	memLine uint64

	hits   uint64
	misses uint64
	// tick is the monotone LRU clock: it advances by one for every line
	// probe of this cache, whatever the outcome.  Because it counts probes
	// (not the hits+misses totals of earlier designs), batched line-granular
	// simulation and per-word simulation see the same recency *order* and
	// therefore make identical replacement decisions.
	tick uint64

	lineMask uint64
	setMask  uint64
	lineBits uint
}

// NewCache builds a cache from its configuration.  next may be nil for the
// last level; when non-nil its own level chain must already be complete,
// which is the natural construction order (memory side first).
func NewCache(cfg CacheConfig, next *Cache) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:  cfg,
		next: next,
		slab: make([]uint64, 2*sets*cfg.Associativity),
		ways: cfg.Associativity,
	}
	c.lineBits = uint(bitsFor(cfg.LineBytes))
	c.lineMask = uint64(cfg.LineBytes - 1)
	c.setMask = uint64(sets - 1)
	c.levels[0] = c
	c.depth = 1
	for lvl := next; lvl != nil; lvl = lvl.next {
		if c.depth == maxLevels {
			panic(fmt.Sprintf("arch: cache %s starts a hierarchy deeper than %d levels", cfg.Name, maxLevels))
		}
		c.levels[c.depth] = lvl
		c.depth++
	}
	var sum uint64
	for i := 0; i < c.depth; i++ {
		sum += uint64(c.levels[i].cfg.LatencyCycles)
		c.latency[i] = sum
	}
	c.memLine = uint64(c.levels[c.depth-1].cfg.LineBytes)
	return c
}

func bitsFor(v int) int {
	b := 0
	for (1 << b) < v {
		b++
	}
	return b
}

// Config returns the cache configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Hits returns the number of hits recorded so far.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of misses recorded so far.
func (c *Cache) Misses() uint64 { return c.misses }

// Accesses returns hits + misses.
func (c *Cache) Accesses() uint64 { return c.hits + c.misses }

// HitRatio returns the hit ratio observed so far (1 when untouched).
func (c *Cache) HitRatio() float64 {
	total := c.Accesses()
	if total == 0 {
		return 1
	}
	return float64(c.hits) / float64(total)
}

// lines returns the number of ways of all sets.
func (c *Cache) lines() int { return len(c.slab) / 2 }

// way returns the tag word and the tick of way index i, numbered
// set*ways+way as AppendState encodes it.
func (c *Cache) way(i int) (tag, tick *uint64) {
	p := i/c.ways*2*c.ways + i%c.ways
	return &c.slab[p], &c.slab[p+c.ways]
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.slab)
	c.hits, c.misses, c.tick = 0, 0, 0
}

// probe looks addr's line up in this single level, updating LRU state and
// hit/miss statistics, and refilling the LRU victim on a miss.  It reports
// whether the access hit.  The hit scan reads only the set's tag words and
// exits at the first match; only a miss scans the set's ticks for the
// victim.
func (c *Cache) probe(addr uint64, write bool) bool {
	tag := addr >> c.lineBits
	base := int(tag&c.setMask) * 2 * c.ways
	set := c.slab[base : base+2*c.ways]
	tags, lru := set[:c.ways], set[c.ways:]
	c.tick++
	want := tag<<lineTagShift | lineValid
	for i, t := range tags {
		if t&^lineDirty == want {
			c.hits++
			lru[i] = c.tick
			if write {
				tags[i] = t | lineDirty
			}
			return true
		}
	}

	// Miss: the first way with the smallest tick is the victim — the first
	// invalid way if any, else the LRU one.  The scan has no early exit, so
	// the minimum compiles to conditional moves instead of branches that
	// mispredict on unordered ticks.
	c.misses++
	victim, oldest := 0, lru[0]
	for i, t := range lru {
		if t < oldest {
			victim, oldest = i, t
		}
	}
	if write {
		want |= lineDirty
	}
	tags[victim] = want
	lru[victim] = c.tick
	return false
}

// AccessLine probes the hierarchy once for the line holding addr and
// returns the 1-based level that hit (1 = this cache), or 0 when every
// level missed and the line came from memory.  It is the single-line form
// of AccessRun — AccessRun(addr, 1, write) performs the same probe — for
// callers that sample one line at a time and need no aggregate.
func (c *Cache) AccessLine(addr uint64, write bool) int {
	for i := 0; i < c.depth; i++ {
		if c.levels[i].probe(addr, write) {
			return i + 1
		}
	}
	return 0
}

// RunResult aggregates the outcome of a batched, line-granular run of
// accesses through the hierarchy.  All counts are in line probes, not words:
// a sequential run's intra-line word accesses are L1 hits by construction
// and are accounted arithmetically by the caller.
type RunResult struct {
	// LineAccesses is the number of line-granular probes performed.
	LineAccesses uint64
	// LevelHits[i] is the number of probes that hit at level i+1 (relative
	// to the cache AccessRun was called on).
	LevelHits [maxLevels]uint64
	// MemAccesses is the number of probes that missed every level.
	MemAccesses uint64
	// LatencyCycles is the summed hierarchy latency of all probes,
	// excluding memory.
	LatencyCycles uint64
	// MemoryBytes is the number of bytes transferred from memory (one line
	// per last-level miss).
	MemoryBytes uint64
}

// Add merges o into r, so sampled sub-runs can be aggregated.
func (r *RunResult) Add(o RunResult) {
	r.LineAccesses += o.LineAccesses
	for i := range r.LevelHits {
		r.LevelHits[i] += o.LevelHits[i]
	}
	r.MemAccesses += o.MemAccesses
	r.LatencyCycles += o.LatencyCycles
	r.MemoryBytes += o.MemoryBytes
}

// AccessRun simulates a sequential run of bytes bytes starting at addr by
// probing the hierarchy once per cache line the run touches, and returns the
// aggregated per-level outcome.  It is equivalent — in per-level line
// hit/miss counts and in replacement decisions — to issuing one AccessLine
// per touched line, and an order of magnitude cheaper than probing once per
// word because intra-line accesses never reach the model.
func (c *Cache) AccessRun(addr, bytes uint64, write bool) RunResult {
	var rr RunResult
	if bytes == 0 {
		return rr
	}
	lineBytes := uint64(c.cfg.LineBytes)
	last := (addr + bytes - 1) &^ c.lineMask
	for a := addr &^ c.lineMask; ; a += lineBytes {
		rr.LineAccesses++
		if lvl := c.AccessLine(a, write); lvl > 0 {
			rr.LevelHits[lvl-1]++
			rr.LatencyCycles += c.latency[lvl-1]
		} else {
			rr.MemAccesses++
			rr.LatencyCycles += c.latency[c.depth-1]
			rr.MemoryBytes += c.memLine
		}
		if a == last {
			break
		}
	}
	return rr
}

// Hierarchy bundles the per-core caches plus the shared last level cache of
// one core's view of the memory system.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	L3  *Cache // shared; may be shared between Hierarchy values
}

// NewHierarchy builds a per-core hierarchy sharing the provided L3.
func NewHierarchy(p Profile, sharedL3 *Cache) Hierarchy {
	l2 := NewCache(p.L2, sharedL3)
	return Hierarchy{
		L1I: NewCache(p.L1I, l2),
		L1D: NewCache(p.L1D, l2),
		L2:  l2,
		L3:  sharedL3,
	}
}
