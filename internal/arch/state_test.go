package arch

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// dirtyMachine drives deterministic traffic through every stateful
// component of the machine: all cores' data/instruction hierarchies and
// branch predictors, which also exercises the shared per-socket L3s.
func dirtyMachine(m *Machine) {
	for ci := 0; ci < m.NumCores(); ci++ {
		core := m.Core(ci)
		for i := uint64(0); i < 300; i++ {
			addr := i*97 + uint64(ci)*131071
			access(core.Caches.L1D, addr*64, i%3 == 0)
			access(core.Caches.L1I, addr*64+7, false)
			core.Branch.Record(addr, i%5 != 0)
		}
	}
}

func TestMachineStateRoundTrip(t *testing.T) {
	for _, p := range []Profile{Westmere(), Haswell()} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			src := MustNewMachine(p)
			dirtyMachine(src)
			state := src.AppendState(nil)
			if !bytes.Equal(state, src.AppendState(nil)) {
				t.Fatal("AppendState is not deterministic")
			}

			dst := MustNewMachine(p)
			// Pre-dirty differently: the load must fully overwrite.
			for i := uint64(0); i < 50; i++ {
				access(dst.Core(0).Caches.L1D, i*4096, true)
			}
			rest, err := dst.LoadState(state)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if len(rest) != 0 {
				t.Fatalf("%d unconsumed bytes", len(rest))
			}
			if !bytes.Equal(state, dst.AppendState(nil)) {
				t.Fatal("re-export after load diverges")
			}
			// Identical future behaviour, not just identical statistics.
			dirtyMachine(src)
			dirtyMachine(dst)
			if !bytes.Equal(src.AppendState(nil), dst.AppendState(nil)) {
				t.Fatal("loaded machine diverged from original on identical traffic")
			}
		})
	}
}

func TestMachineLoadRejectsMismatchedGeometry(t *testing.T) {
	src := MustNewMachine(Westmere())
	dirtyMachine(src)
	state := src.AppendState(nil)

	other := MustNewMachine(Haswell())
	if _, err := other.LoadState(state); err == nil {
		t.Fatal("load of another profile's state must fail")
	}
	target := MustNewMachine(Westmere())
	for _, cut := range []int{0, 8, len(state) / 2, len(state) - 1} {
		if _, err := target.LoadState(state[:cut]); err == nil {
			t.Fatalf("load of %d/%d truncated bytes must fail", cut, len(state))
		}
	}
	// A failed load resets the target: it must now equal a fresh machine.
	fresh := MustNewMachine(Westmere())
	if !bytes.Equal(target.AppendState(nil), fresh.AppendState(nil)) {
		t.Fatal("machine left dirty after failed load")
	}
}

func TestCacheLoadRejectsCorruptLineIndexes(t *testing.T) {
	c := NewCache(CacheConfig{Name: "L1D", SizeBytes: 4096, LineBytes: 64, Associativity: 2, LatencyCycles: 1}, nil)
	access(c, 0, true)
	access(c, 64, false)
	state := c.AppendState(nil)

	// Flip the second sparse entry's index to repeat the first: indexes
	// must be strictly increasing.
	bad := append([]byte(nil), state...)
	idxOff := 5*8 + 3*8 // header words, then first entry
	copy(bad[idxOff:idxOff+8], bad[5*8:5*8+8])
	fresh := NewCache(c.Config(), nil)
	if _, err := fresh.LoadState(bad); err == nil {
		t.Fatal("out-of-order line index must be rejected")
	}

	rt := NewCache(c.Config(), nil)
	if _, err := rt.LoadState(state); err != nil {
		t.Fatalf("load: %v", err)
	}
	if rt.Hits() != c.Hits() || rt.Misses() != c.Misses() {
		t.Fatalf("stats diverged: %d/%d vs %d/%d", rt.Hits(), rt.Misses(), c.Hits(), c.Misses())
	}
}

// The victim scan relies on tick 0 ⇔ invalid way, so a stream that breaks
// it must be rejected like a bad index: error, and the cache reset.
func TestCacheLoadRejectsBrokenTickInvariant(t *testing.T) {
	c := NewCache(CacheConfig{Name: "L1D", SizeBytes: 4096, LineBytes: 64, Associativity: 2, LatencyCycles: 1}, nil)
	access(c, 0, true)
	access(c, 64, false)
	state := c.AppendState(nil)

	// Header words, then sparse (index, tag word, tick) entries.
	const firstTag, firstTick = 5*8 + 8, 5*8 + 16
	set := func(off int, v uint64) []byte {
		bad := append([]byte(nil), state...)
		binary.LittleEndian.PutUint64(bad[off:], v)
		return bad
	}
	for name, bad := range map[string][]byte{
		"valid way with tick 0":         set(firstTick, 0),
		"tick above the cache tick":     set(firstTick, c.tick+1),
		"invalid way with a tag":        set(firstTag, 1<<lineTagShift),
		"invalid way with a tick":       set(firstTag, 0),
		"invalid way with a dirty flag": set(firstTag, lineDirty),
	} {
		target := NewCache(c.Config(), nil)
		access(target, 4096, true)
		if _, err := target.LoadState(bad); err == nil {
			t.Errorf("%s: load must fail", name)
		}
		if !bytes.Equal(target.AppendState(nil), NewCache(c.Config(), nil).AppendState(nil)) {
			t.Errorf("%s: cache left dirty after failed load", name)
		}
	}
	if _, err := NewCache(c.Config(), nil).LoadState(state); err != nil {
		t.Fatalf("intact state rejected: %v", err)
	}
}

func TestBranchPredictorStateRoundTrip(t *testing.T) {
	src := NewBranchPredictor(BranchPredictorConfig{HistoryBits: 8, MissPenaltyCycles: 12})
	for i := uint64(0); i < 500; i++ {
		src.Record(i*31, i%7 < 3)
	}
	state := src.AppendState(nil)
	dst := NewBranchPredictor(src.Config())
	rest, err := dst.LoadState(state)
	if err != nil || len(rest) != 0 {
		t.Fatalf("load: err=%v rest=%d", err, len(rest))
	}
	if dst.Lookups() != src.Lookups() || dst.Misses() != src.Misses() {
		t.Fatal("statistics diverged")
	}
	if !reflect.DeepEqual(src.counters, dst.counters) || src.history != dst.history {
		t.Fatal("predictor state diverged")
	}
	small := NewBranchPredictor(BranchPredictorConfig{HistoryBits: 4})
	if _, err := small.LoadState(state); err == nil {
		t.Fatal("load into a differently sized table must fail")
	}
}
