package nursery

import (
	"context"
	"testing"

	"webmm/internal/alloctest"
	"webmm/internal/heap"
	"webmm/internal/machine"
	"webmm/internal/mem"
	"webmm/internal/sim"
)

func TestBumpAllocationAndDeathNotes(t *testing.T) {
	env := alloctest.NewEnv(1)
	a := New(env, 256*mem.KiB)
	p1 := a.Malloc(64)
	p2 := a.Malloc(64)
	if p2-p1 != 64 {
		t.Fatalf("objects %d apart, want 64 (bump)", p2-p1)
	}
	a.Free(p1)
	if q := a.Malloc(64); q == p1 {
		t.Fatal("freed nursery object reused before collection")
	}
}

func TestCollectionResetsNurseryAndTenuresSurvivors(t *testing.T) {
	env := alloctest.NewEnv(2)
	const size = 128 * mem.KiB
	a := New(env, size)
	first := a.Malloc(64)

	// Fill the nursery with objects, freeing 90% (transaction-scoped
	// deaths), keeping 10% live.
	var live []heap.Ptr
	for i := 1; a.Collections() == 0; i++ {
		p := a.Malloc(64)
		if i%10 == 0 {
			live = append(live, p)
		} else {
			a.Free(p)
		}
		env.Drain()
	}
	if a.Collections() != 1 {
		t.Fatalf("collections = %d, want 1", a.Collections())
	}
	if a.Tenured() == 0 {
		t.Fatal("no survivors were tenured")
	}
	// The nursery restarts at its base: the next allocations land back
	// on the recycled bottom of the nursery (the collection-triggering
	// malloc already took the base slot itself).
	if got := a.Malloc(64); got >= first+256 {
		t.Fatalf("post-GC allocation at %#x, want reuse near nursery base %#x", got, first)
	}
}

func TestNoFreeAll(t *testing.T) {
	a := New(alloctest.NewEnv(3), 128*mem.KiB)
	if a.SupportsFreeAll() {
		t.Fatal("GC nursery must not claim freeAll")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FreeAll did not panic")
		}
	}()
	a.FreeAll()
}

func TestBigObjectsTenureDirectly(t *testing.T) {
	env := alloctest.NewEnv(4)
	a := New(env, 128*mem.KiB)
	p := a.Malloc(64 * mem.KiB) // > nursery/4
	if a.nursery.Contains(p) {
		t.Fatal("oversized object placed in the nursery")
	}
}

// TestSection5NurserySizeTradeoff is the paper's Section 5 claim as a test:
// with equal application work, a cache-sized nursery produces far less bus
// traffic per transaction than a cache-busting one, because its lines are
// recycled while still resident.
func TestSection5NurserySizeTradeoff(t *testing.T) {
	busPerTxn := func(nurseryKiB uint64) float64 {
		m := machine.New(machine.Xeon(), 2, 8*mem.KiB, 64*mem.KiB, 9)
		drivers := make([]machine.Driver, m.NumStreams())
		for i, s := range m.Streams() {
			a := New(s.Env, nurseryKiB*mem.KiB)
			env := s.Env
			drivers[i] = driverFunc(func() bool {
				var keep []heap.Ptr
				for j := 0; j < 8000; j++ {
					p := a.Malloc(96)
					env.Write(p, 96, sim.ClassApp)
					if j%10 == 0 {
						keep = append(keep, p)
					} else {
						a.Free(p)
					}
					if len(keep) > 200 {
						a.Free(keep[0])
						keep = keep[1:]
					}
				}
				for _, p := range keep {
					a.Free(p)
				}
				return true
			})
		}
		m.PriceSetup()
		m.RunContext(context.Background(), drivers, 2, 3)
		res := m.Solve()
		return res.PerTxn(res.Totals.BusTxns())
	}
	// Xeon L2 here is 4 MiB per core pair: 512 KiB nursery fits two
	// streams comfortably; 16 MiB does not.
	small := busPerTxn(512)
	large := busPerTxn(16 * 1024)
	if large < 2*small {
		t.Fatalf("Section 5 trade-off missing: %.0f bus txns with a cache-busting nursery vs %.0f with a cache-sized one",
			large, small)
	}
}

type driverFunc func() bool

func (f driverFunc) StepTransaction() bool { return f() }

func TestFootprintAccounting(t *testing.T) {
	env := alloctest.NewEnv(5)
	a := New(env, 256*mem.KiB)
	a.ResetPeak()
	base := a.PeakFootprint()
	for i := 0; i < 30000; i++ {
		p := a.Malloc(64)
		if i%3 != 0 {
			a.Free(p)
		}
		if i%1000 == 0 {
			env.Drain()
		}
	}
	if a.PeakFootprint() <= base {
		t.Fatal("footprint did not grow despite tenured survivors")
	}
}
