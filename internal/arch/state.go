package arch

import (
	"encoding/binary"
	"fmt"
)

// This file implements mid-trace state export/import for the
// micro-architectural models, so a simulation can be checkpointed between
// cluster stages and resumed in another process with bit-identical
// behaviour.  The encoding is a flat little-endian word stream with no
// self-description: geometry (line counts, predictor table sizes) comes
// from the configuration the importing side was built with, and every Load
// validates the stream against that geometry so state from a differently
// configured model is rejected instead of silently misapplied.
//
// Cache slabs are encoded sparsely (index + tag word + LRU tick for every
// non-empty way) because checkpoints are taken after bounded traces: the
// touched working set is tiny compared to, say, a 12 MB last-level cache
// slab, and empty ways are exactly the zero value that LoadState starts
// from.

// AppendState appends the cache's mutable state — hit/miss/tick statistics
// and every non-empty line of the slab — to dst and returns the extended
// slice.  Only this level is encoded; callers walk the hierarchy
// explicitly (Machine.AppendState) so shared levels are captured once.
func (c *Cache) AppendState(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, c.hits)
	dst = binary.LittleEndian.AppendUint64(dst, c.misses)
	dst = binary.LittleEndian.AppendUint64(dst, c.tick)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.lines()))
	occupied := uint64(0)
	for i := 0; i < c.lines(); i++ {
		if tag, tick := c.way(i); *tag|*tick != 0 {
			occupied++
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, occupied)
	for i := 0; i < c.lines(); i++ {
		tag, tick := c.way(i)
		if *tag|*tick == 0 {
			continue
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(i))
		dst = binary.LittleEndian.AppendUint64(dst, *tag)
		dst = binary.LittleEndian.AppendUint64(dst, *tick)
	}
	return dst
}

// LoadState restores state previously produced by AppendState from the
// front of src and returns the unconsumed remainder.  The stream's slab
// geometry must match this cache's configuration, and every line must keep
// the invariant the victim scan relies on: a valid way has a tick in
// [1, tick], an invalid way has a zero tag word and tick.  On any mismatch,
// broken invariant or truncation an error is returned and the cache is
// reset to its construction state (never left half-loaded).
func (c *Cache) LoadState(src []byte) ([]byte, error) {
	r := stateReader{buf: src}
	hits := r.u64()
	misses := r.u64()
	tick := r.u64()
	nLines := r.u64()
	occupied := r.u64()
	if r.err == nil && nLines != uint64(c.lines()) {
		r.err = fmt.Errorf("arch: cache %s state carries %d lines, this cache has %d", c.cfg.Name, nLines, c.lines())
	}
	if r.err == nil && occupied > nLines {
		r.err = fmt.Errorf("arch: cache %s state claims %d occupied of %d lines", c.cfg.Name, occupied, nLines)
	}
	if r.err != nil {
		c.Reset()
		return nil, r.err
	}
	c.Reset()
	c.hits, c.misses, c.tick = hits, misses, tick
	prev := -1
	for k := uint64(0); k < occupied; k++ {
		idx := r.u64()
		tagState := r.u64()
		lru := r.u64()
		if r.err == nil && (idx >= nLines || int(idx) <= prev) {
			r.err = fmt.Errorf("arch: cache %s state has out-of-order line index %d", c.cfg.Name, idx)
		}
		if r.err == nil && !validTick(tagState, lru, tick) {
			r.err = fmt.Errorf("arch: cache %s state line %d has tag word %#x with tick %d (cache tick %d)", c.cfg.Name, idx, tagState, lru, tick)
		}
		if r.err != nil {
			c.Reset()
			return nil, r.err
		}
		tag, tick := c.way(int(idx))
		*tag, *tick = tagState, lru
		prev = int(idx)
	}
	return r.buf, nil
}

// validTick reports whether a way's tag word and tick keep the tick-0 ⇔
// invalid invariant under a cache clock at tick.
func validTick(tagState, lru, tick uint64) bool {
	if tagState&lineValid == 0 {
		return tagState == 0 && lru == 0
	}
	return lru >= 1 && lru <= tick
}

// AppendState appends the predictor's mutable state — global history,
// lookup/miss statistics and the full pattern table — to dst and returns
// the extended slice.  The table is encoded densely: its entries are
// one byte each and the weakly-taken initial value is not the zero byte,
// so a sparse encoding would buy nothing.
func (b *BranchPredictor) AppendState(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, b.history)
	dst = binary.LittleEndian.AppendUint64(dst, b.lookups)
	dst = binary.LittleEndian.AppendUint64(dst, b.misses)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(b.counters)))
	return append(dst, b.counters...)
}

// LoadState restores state previously produced by AppendState from the
// front of src and returns the unconsumed remainder.  The stream's table
// size must match this predictor's configuration; on mismatch or
// truncation the predictor is reset and an error returned.
func (b *BranchPredictor) LoadState(src []byte) ([]byte, error) {
	r := stateReader{buf: src}
	history := r.u64()
	lookups := r.u64()
	misses := r.u64()
	n := r.u64()
	if r.err == nil && n != uint64(len(b.counters)) {
		r.err = fmt.Errorf("arch: branch predictor state carries %d counters, this predictor has %d", n, len(b.counters))
	}
	if r.err == nil && uint64(len(r.buf)) < n {
		r.err = fmt.Errorf("arch: branch predictor state truncated")
	}
	if r.err != nil {
		b.Reset()
		return nil, r.err
	}
	b.history, b.lookups, b.misses = history, lookups, misses
	copy(b.counters, r.buf[:n])
	return r.buf[n:], nil
}

// AppendState appends the machine's complete mutable state to dst and
// returns the extended slice: every per-socket shared L3 followed by every
// core's private L1I, L1D and L2 caches and branch predictor.  Shared
// levels are emitted exactly once — the per-core hierarchies reference the
// socket L3, and each core's L1I and L1D share one L2, which is encoded
// once per core.
func (m *Machine) AppendState(dst []byte) []byte {
	for _, l3 := range m.l3s {
		dst = l3.AppendState(dst)
	}
	for _, c := range m.cores {
		dst = c.Caches.L1I.AppendState(dst)
		dst = c.Caches.L1D.AppendState(dst)
		dst = c.Caches.L2.AppendState(dst)
		dst = c.Branch.AppendState(dst)
	}
	return dst
}

// LoadState restores machine state previously produced by AppendState from
// the front of src and returns the unconsumed remainder.  The machine must
// have been built from the same profile; on any geometry mismatch or
// truncation the whole machine is reset and an error returned.
func (m *Machine) LoadState(src []byte) ([]byte, error) {
	var err error
	for _, l3 := range m.l3s {
		if src, err = l3.LoadState(src); err != nil {
			m.Reset()
			return nil, err
		}
	}
	for _, c := range m.cores {
		if src, err = c.Caches.L1I.LoadState(src); err == nil {
			src, err = c.Caches.L1D.LoadState(src)
		}
		if err == nil {
			src, err = c.Caches.L2.LoadState(src)
		}
		if err == nil {
			src, err = c.Branch.LoadState(src)
		}
		if err != nil {
			m.Reset()
			return nil, err
		}
	}
	return src, nil
}

// stateReader consumes little-endian words from a byte stream, latching the
// first truncation error so callers can batch reads and check once.
type stateReader struct {
	buf []byte
	err error
}

func (r *stateReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = fmt.Errorf("arch: state truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}
