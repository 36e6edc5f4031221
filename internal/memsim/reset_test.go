package memsim

import (
	"math/rand"
	"reflect"
	"testing"
)

// resetConfig turns on every piece of state the hierarchy keeps: the
// streamer with bounded outstanding fills, banked L1s, 4K-alias detection,
// DRAM rows across several banks, and two sockets.
func resetConfig() HierarchyConfig {
	cfg := testConfig()
	cfg.CoresPerSocket = 2
	cfg.NextLinePrefetch = true
	cfg.PrefetchOutstanding = 6
	cfg.Mem.RowBytes = 2048
	cfg.Mem.RowMissCycles = 20
	cfg.Mem.BanksPerChannel = 4
	return cfg
}

// dirty drives the system the way a noisy DRAM-streaming launch does:
// interleaved load and store streams larger than the L3 on every core
// (line splits and 4K aliases included), interrupt-style cache
// disturbances, and a DVFS change in the middle.
func dirty(t *testing.T, s *System, seed int64) []int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	size := uint64(s.cfg.L3.Size) * 2
	var out []int64
	issue := int64(1)
	for off := uint64(0); off < size; off += 64 {
		for c := 0; c < s.NumCores(); c++ {
			src := 0x4000000 + uint64(c)*size*4
			dst := src + size + 0x1000 // 4K-aliases the source stream
			out = append(out, s.Store(c, dst+off, 8, issue))
			// Same page offset as the store (a 4K alias), then the same
			// L1 bank in the same cycle (a bank conflict).
			out = append(out, s.Load(c, src+off+8, 8, issue+1))
			out = append(out, s.Load(c, src+off+64+8, 8, issue+1))
			if off%(64*8) == 0 {
				out = append(out, s.Load(c, src+off+60, 8, issue+2)) // line split
			}
			if off%(64*512) == 0 {
				s.DisturbCore(c, rng, 0.3)
			}
		}
		if off == size/2 {
			if err := s.SetCoreClockRatio(1.7); err != nil {
				t.Fatal(err)
			}
		}
		issue += 3
	}
	return out
}

// TestResetEqualsNew: after a DRAM-streaming run with noise disturbances
// and a clock-ratio change, Reset leaves the System deeply equal to a
// freshly built one. A field added to System (or its per-core and
// per-socket state) that Reset forgets fails here.
func TestResetEqualsNew(t *testing.T) {
	cfg := resetConfig()
	fresh, err := NewSystem(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	first := dirty(t, s, 1)
	if reflect.DeepEqual(s, fresh) {
		t.Fatal("the workload left no state behind; the test proves nothing")
	}
	st := s.Stats()
	if st.MemAccesses == 0 || st.Prefetches == 0 || st.AliasStalls == 0 || st.LineSplits == 0 || st.RowMisses == 0 || st.BankConflicts == 0 {
		t.Fatalf("workload missed a mechanism: %+v", st)
	}
	s.Reset()
	if !reflect.DeepEqual(s, fresh) {
		t.Fatal("Reset left the system different from NewSystem")
	}
	// Same workload again: a reset system answers exactly as the fresh
	// system did the first time.
	if again := dirty(t, s, 1); !reflect.DeepEqual(again, first) {
		t.Fatal("a reset system replayed the workload with different timings")
	}
	if s.Stats() != st {
		t.Fatalf("stats after replay %+v, want %+v", s.Stats(), st)
	}
}
