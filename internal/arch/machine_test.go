package arch

import "testing"

func TestStockProfilesValidate(t *testing.T) {
	for name, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", name, err)
		}
	}
}

func TestWestmereMatchesTableIV(t *testing.T) {
	p := Westmere()
	if p.TotalCores() != 12 {
		t.Fatalf("Westmere node should have 12 cores (2 sockets x 6), got %d", p.TotalCores())
	}
	if p.FrequencyHz != 2.40e9 {
		t.Fatalf("Westmere frequency = %g", p.FrequencyHz)
	}
	if p.L1D.SizeBytes != 32*1024 || p.L1I.SizeBytes != 32*1024 {
		t.Fatal("Westmere L1 caches should be 32 KB")
	}
	if p.L2.SizeBytes != 256*1024 {
		t.Fatal("Westmere L2 should be 256 KB")
	}
	if p.L3.SizeBytes != 12*1024*1024 {
		t.Fatal("Westmere L3 should be 12 MB")
	}
}

func TestHaswellIsNewerGeneration(t *testing.T) {
	w, h := Westmere(), Haswell()
	if h.IssueWidth <= w.IssueWidth {
		t.Fatal("Haswell should have a wider issue width than Westmere")
	}
	if h.L3.SizeBytes <= w.L3.SizeBytes {
		t.Fatal("Haswell should have a larger L3 than Westmere")
	}
	if h.MemBandwidthBytesPS <= w.MemBandwidthBytesPS {
		t.Fatal("Haswell (DDR4) should have more memory bandwidth than Westmere (DDR3)")
	}
	if h.FloatCostFactor >= w.FloatCostFactor {
		t.Fatal("Haswell should execute floating point more cheaply")
	}
}

func TestProfileValidateRejectsBadProfiles(t *testing.T) {
	p := Westmere()
	p.FrequencyHz = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero frequency should be rejected")
	}
	p = Westmere()
	p.IssueWidth = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero issue width should be rejected")
	}
	p = Westmere()
	p.Sockets = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero sockets should be rejected")
	}
	p = Westmere()
	p.L2.LineBytes = 48
	if err := p.Validate(); err == nil {
		t.Fatal("bad cache line size should be rejected")
	}
	p = Westmere()
	p.DiskBandwidthBytesPS = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero disk bandwidth should be rejected")
	}
}

func TestNewMachine(t *testing.T) {
	m, err := NewMachine(Westmere())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCores() != 12 {
		t.Fatalf("NumCores = %d", m.NumCores())
	}
	// Cores on the same socket share an L3; cores on different sockets do not.
	if m.Core(0).Caches.L3 != m.Core(1).Caches.L3 {
		t.Fatal("cores 0 and 1 should share a socket L3")
	}
	if m.Core(0).Caches.L3 == m.Core(6).Caches.L3 {
		t.Fatal("cores 0 and 6 should live on different sockets")
	}
	// Core index wraps around.
	if m.Core(12) != m.Core(0) || m.Core(-3) != m.Core(3) {
		t.Fatal("Core() should wrap indices onto physical cores")
	}
}

func TestNewMachineRejectsInvalidProfile(t *testing.T) {
	p := Westmere()
	p.L1D.SizeBytes = 0
	if _, err := NewMachine(p); err == nil {
		t.Fatal("NewMachine should reject an invalid profile")
	}
}

func TestMustNewMachinePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewMachine should panic on invalid profile")
		}
	}()
	p := Westmere()
	p.FrequencyHz = -1
	MustNewMachine(p)
}

func TestMachineReset(t *testing.T) {
	m := MustNewMachine(Westmere())
	core := m.Core(0)
	access(core.Caches.L1D, 0x100, false)
	core.Branch.Record(1, true)
	m.Reset()
	if core.Caches.L1D.Accesses() != 0 {
		t.Fatal("Reset should clear L1D statistics")
	}
	if core.Branch.Lookups() != 0 {
		t.Fatal("Reset should clear branch predictor statistics")
	}
	if core.Caches.L3.Accesses() != 0 {
		t.Fatal("Reset should clear shared L3 statistics")
	}
}

func TestHierarchySharesL2BetweenL1s(t *testing.T) {
	p := Westmere()
	l3 := NewCache(p.L3, nil)
	h := NewHierarchy(p, l3)
	if h.L1I == h.L1D {
		t.Fatal("L1I and L1D must be distinct caches")
	}
	// An instruction fetch miss and a data miss to the same line should both
	// land in the same L2.
	access(h.L1I, 0x2000, false)
	access(h.L1D, 0x2000, false)
	if h.L2.Accesses() != 2 {
		t.Fatalf("L2 should see both L1 misses, saw %d accesses", h.L2.Accesses())
	}
}
