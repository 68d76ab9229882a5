package apprt

import (
	"testing"

	"webmm/internal/alloctest"
	"webmm/internal/sim"
	"webmm/internal/workload"
)

func runPHPTxns(t *testing.T, r *PHPRuntime, env *sim.Env, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		for !r.StepTransaction() {
			env.Drain()
		}
		env.Drain()
	}
}

// TestNewAllocatorRegistry: every registered allocator constructs, and the
// registry's static facts — read by AllocCodeSize and RuntimeAllocator
// without constructing anything — equal what the constructed allocator
// reports.
func TestNewAllocatorRegistry(t *testing.T) {
	for _, d := range Allocators() {
		env := alloctest.NewEnv(1)
		a, err := NewAllocator(d.Name, env, AllocOptions{})
		if err != nil {
			t.Errorf("NewAllocator(%q): %v", d.Name, err)
			continue
		}
		if p := a.Malloc(64); p == 0 {
			t.Errorf("allocator %q returned null", d.Name)
		}
		if d.CodeSize == 0 || d.CodeSize != a.CodeSize() {
			t.Errorf("%s: registry CodeSize %d, constructed allocator %d", d.Name, d.CodeSize, a.CodeSize())
		}
		if got, err := AllocCodeSize(d.Name); err != nil || got != a.CodeSize() {
			t.Errorf("AllocCodeSize(%q) = %d, %v; want %d", d.Name, got, err, a.CodeSize())
		}
		if d.FreeAll != a.SupportsFreeAll() {
			t.Errorf("%s: registry FreeAll %v, constructed allocator %v", d.Name, d.FreeAll, a.SupportsFreeAll())
		}
		if _, err := RuntimeAllocator(d.Name, false); (err == nil) != a.SupportsFreeAll() {
			t.Errorf("RuntimeAllocator(%q, php): err %v, but SupportsFreeAll is %v", d.Name, err, a.SupportsFreeAll())
		}
	}
	if _, err := NewAllocator("jemalloc", alloctest.NewEnv(1), AllocOptions{}); err == nil {
		t.Error("unknown allocator accepted")
	}
	if _, err := AllocCodeSize("jemalloc"); err == nil {
		t.Error("AllocCodeSize accepted an unknown allocator")
	}
}

func TestPHPRuntimeCallsFreeAllPerTransaction(t *testing.T) {
	env := alloctest.NewEnv(2)
	r, err := NewPHP(env, "ddmalloc", workload.PhpBB(), 8, AllocOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runPHPTxns(t, r, env, 3)
	if got := r.Allocator().Stats().FreeAlls; got != 3 {
		t.Fatalf("FreeAlls = %d, want 3 (one per transaction)", got)
	}
}

func TestPHPRuntimeRejectsAllocatorsWithoutFreeAll(t *testing.T) {
	for _, name := range []string{"glibc", "hoard", "tcmalloc"} {
		if _, err := NewPHP(alloctest.NewEnv(3), name, workload.PhpBB(), 8, AllocOptions{}); err == nil {
			t.Errorf("PHP runtime accepted %q, which lacks freeAll", name)
		}
	}
}

func TestPHPFootprintSampling(t *testing.T) {
	env := alloctest.NewEnv(4)
	r, err := NewPHP(env, "region", workload.PhpBB(), 8, AllocOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runPHPTxns(t, r, env, 2)
	fp := r.AvgFootprint()
	// The region allocator's footprint is the bytes allocated during the
	// transaction: ~5870 mallocs * ~56 bytes rounded to 8.
	if fp < 250_000 || fp > 2_000_000 {
		t.Fatalf("region avg footprint = %.0f, want a few hundred KiB", fp)
	}
	r.ResetFootprint()
	if r.AvgFootprint() != 0 {
		t.Fatal("ResetFootprint did not reset")
	}
}

func TestRubyRuntimeRestartsOnSchedule(t *testing.T) {
	env := alloctest.NewEnv(5)
	r, err := NewRuby(env, "glibc", workload.Rails(), 64, 2, AllocOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := r.Allocator()
	for i := 0; i < 5; i++ {
		for !r.StepTransaction() {
			env.Drain()
		}
		env.Drain()
	}
	if got := r.Restarts(); got != 2 {
		t.Fatalf("restarts = %d after 5 txns with RestartEvery=2, want 2", got)
	}
	if r.Allocator() == first {
		t.Fatal("allocator not replaced by restart")
	}
}

func TestRubyNoRestartWhenDisabled(t *testing.T) {
	env := alloctest.NewEnv(6)
	r, err := NewRuby(env, "tcmalloc", workload.Rails(), 64, 0, AllocOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for !r.StepTransaction() {
			env.Drain()
		}
		env.Drain()
	}
	if r.Restarts() != 0 {
		t.Fatalf("restarts = %d with RestartEvery=0", r.Restarts())
	}
}

func TestRubyRejectsRegionFamily(t *testing.T) {
	for _, name := range []string{"region", "obstack", "default"} {
		if _, err := NewRuby(alloctest.NewEnv(7), name, workload.Rails(), 64, 500, AllocOptions{}); err == nil {
			t.Errorf("Ruby runtime accepted %q", name)
		}
	}
}

func TestRubySurvivorsAgeTheHeap(t *testing.T) {
	env := alloctest.NewEnv(8)
	r, err := NewRuby(env, "ddmalloc", workload.Rails(), 64, 0, AllocOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for !r.StepTransaction() {
			env.Drain()
		}
		env.Drain()
	}
	if r.Generator().LiveObjects() == 0 {
		t.Fatal("no cross-transaction survivors in the Ruby model")
	}
}

func TestRubyRestartCostIsOSWork(t *testing.T) {
	env := alloctest.NewEnv(9)
	r, err := NewRuby(env, "glibc", workload.Rails(), 64, 1, AllocOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for !r.StepTransaction() {
		env.Drain()
	}
	instr := env.Instructions()
	if instr[sim.ClassOS] < restartInstr/64 {
		t.Fatalf("OS instructions %d after restart, want >= %d", instr[sim.ClassOS], restartInstr/64)
	}
}

func TestDDmallocLargePagesOptionReachesAllocator(t *testing.T) {
	env := alloctest.NewEnv(10)
	a, err := NewAllocator("ddmalloc", env, AllocOptions{LargePages: true})
	if err != nil {
		t.Fatal(err)
	}
	p := a.Malloc(64)
	if env.AS.PageShift(p) == 12 {
		t.Fatal("large-page option did not reach DDmalloc")
	}
}
