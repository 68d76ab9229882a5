package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"webmm/internal/workload"
)

// parCfg is a cheap config for the scheduler tests: the phpBB matrix below
// simulates in well under a second per cell at this scale.
func parCfg() Config { return Config{Scale: 64, Warmup: 1, Measure: 1, Seed: 7} }

// parMatrix is a multi-cell plan covering both platforms, every PHP
// allocator, and two core counts.
func parMatrix() []Cell {
	wl := workload.PhpBB().Name
	var cells []Cell
	for _, plat := range []string{"xeon", "niagara"} {
		for _, alloc := range PHPAllocators() {
			for _, cores := range []int{1, 2} {
				cells = append(cells, phpCell(plat, alloc, wl, cores))
			}
		}
	}
	return cells
}

// TestRunAllMatchesSerial is the determinism contract of the scheduler:
// fanning a matrix out over 4 workers must produce CellResults deep-equal
// to the serial Run loop, and RunAll with jobs=1 (the CLI's -jobs 1 path)
// must match as well.
func TestRunAllMatchesSerial(t *testing.T) {
	cells := parMatrix()

	serial := NewRunner(parCfg())
	want := make([]CellResult, len(cells))
	for i, c := range cells {
		want[i] = serial.Run(c)
	}

	par := NewRunner(parCfg())
	got := par.RunAll(cells, 4)
	for i := range cells {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("cell %+v: parallel result differs from serial", cells[i])
		}
	}

	one := NewRunner(parCfg())
	if gotOne := one.RunAll(cells, 1); !reflect.DeepEqual(want, gotOne) {
		t.Error("RunAll(jobs=1) differs from the serial Run loop")
	}
}

// TestConcurrentRunSameCell races many Run calls for one cell; under
// `go test -race` this also proves the memo map and singleflight are
// data-race free.
func TestConcurrentRunSameCell(t *testing.T) {
	r := NewRunner(parCfg())
	c := phpCell("xeon", "ddmalloc", workload.PhpBB().Name, 1)
	const n = 8
	results := make([]CellResult, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = r.Run(c)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("concurrent Run call %d returned a different result", i)
		}
	}
}

// TestRunAllDedupsDuplicates: duplicate cells in a plan share one
// simulation but still fill every output slot, in order.
func TestRunAllDedupsDuplicates(t *testing.T) {
	r := NewRunner(parCfg())
	c := phpCell("xeon", "default", workload.PhpBB().Name, 1)
	d := phpCell("xeon", "region", workload.PhpBB().Name, 1)
	got := r.RunAll([]Cell{c, d, c, c}, 2)
	if len(got) != 4 {
		t.Fatalf("RunAll returned %d results for 4 cells", len(got))
	}
	if !reflect.DeepEqual(got[0], got[2]) || !reflect.DeepEqual(got[0], got[3]) {
		t.Error("duplicate cells returned differing results")
	}
	if got[1].Cell != d {
		t.Error("results not in input order")
	}
}

// TestCellPlannersCoverFigures: every simulating experiment has a plan,
// and table2 and unknown names have none. That a plan covers its render
// exactly is TestRenderReadsDoNotDependOnResults.
func TestCellPlannersCoverFigures(t *testing.T) {
	r := NewRunner(parCfg())
	for _, name := range []string{"fig1", "table3", "fig5", "fig6", "fig7",
		"table4", "fig8", "fig9", "fig10", "fig11", "fig12", "all"} {
		if len(r.CellsFor(name)) == 0 {
			t.Errorf("CellsFor(%q) is empty", name)
		}
	}
	if r.CellsFor("table2") != nil {
		t.Error("table2 simulates nothing but has a cell plan")
	}
	if r.CellsFor("nonsense") != nil {
		t.Error("unknown experiment has a cell plan")
	}
}

// TestTimeoutLeavesNoGoroutines is the regression test for the old watchdog
// timeout, which returned to the caller while the simulation goroutine kept
// running (burning CPU and writing telemetry) until the cell finished on its
// own. Cancellation is now cooperative on the caller's goroutine, so after a
// forced timeout the process must be back to its baseline goroutine count —
// nothing abandoned, nothing leaked.
func TestTimeoutLeavesNoGoroutines(t *testing.T) {
	// Scale 16 cells run for hundreds of milliseconds; a 1ms budget is
	// guaranteed to expire mid-simulation, never before it starts.
	r := NewRunner(Config{Scale: 16, Warmup: 1, Measure: 1, Seed: 7})
	r.Timeout = time.Millisecond
	wl := workload.PhpBB().Name

	base := runtime.NumGoroutine()
	cells := []Cell{
		phpCell("xeon", "default", wl, 1),
		phpCell("xeon", "region", wl, 1),
		phpCell("niagara", "ddmalloc", wl, 1),
	}
	for _, res := range r.RunAll(cells, 2) {
		if !res.Failed {
			t.Fatal("1ms timeout did not fail the cell")
		}
	}
	if len(r.Failures()) != len(cells) {
		t.Fatalf("want %d recorded timeouts, got %d", len(cells), len(r.Failures()))
	}

	// RunAll's workers and the context timers need a moment to unwind;
	// poll rather than sleep a fixed (flaky) amount.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after timeout: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestExperimentRendersFromItsResults: Experiment renders from the results
// it collected, so a cell whose failure is not memoized (a timeout) is
// simulated and reported once, not a second time by the render.
func TestExperimentRendersFromItsResults(t *testing.T) {
	r := NewRunner(Config{Scale: 16, Warmup: 1, Measure: 1, Seed: 7})
	r.Timeout = time.Millisecond
	out, err := r.Experiment(context.Background(), "fig1", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Failures()); n != 2 {
		t.Errorf("fig1 recorded %d failures for its 2 cells, want 2", n)
	}
	if tab := out.Tables[0].String(); strings.Count(tab, "FAILED") != 2 {
		t.Errorf("timed-out fig1 does not render two FAILED rows:\n%s", tab)
	}
}

// TestExperimentsAttemptEachCellOnce: Experiments runs its experiments as
// one plan, so a cell that several of them read is attempted once. Under a
// cancelled runner Ctx every cell fails and nothing is memoized, and the
// paper experiments record one failure per distinct cell of their union,
// not one per experiment that reads it.
func TestExperimentsAttemptEachCellOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(goldenCfg())
	r.Ctx = ctx
	names := PaperExperimentNames()
	outs, err := r.Experiments(context.Background(), names, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(names) {
		t.Fatalf("%d outputs for %d experiments", len(outs), len(names))
	}
	failed := map[Cell]int{}
	for _, f := range r.Failures() {
		failed[f.Cell]++
	}
	plan := r.CellsFor("all")
	for _, c := range plan {
		if failed[c] != 1 {
			t.Errorf("%s failed %d times, want once", c.Key(), failed[c])
		}
	}
	if len(failed) != len(plan) {
		t.Errorf("%d distinct cells failed, want the plan's %d", len(failed), len(plan))
	}
}

// TestExperimentReportsEachCellOnce: with several workers the settle hook
// runs on each of them, once per distinct cell of the plan, and the done
// counts it is handed number the cells 1..total.
func TestExperimentReportsEachCellOnce(t *testing.T) {
	r := NewRunner(goldenCfg())
	plan := r.CellsFor("table3")
	var mu sync.Mutex
	seen := map[Cell]bool{}
	dones := map[int]bool{}
	_, err := r.Experiment(context.Background(), "table3", 3, func(res CellResult, done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if seen[res.Cell] || dones[done] || total != len(plan) {
			t.Errorf("%s settled again, or done %d repeated, or total %d for a plan of %d",
				res.Key(), done, total, len(plan))
		}
		seen[res.Cell], dones[done] = true, true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range plan {
		if !seen[c] || !dones[i+1] {
			t.Errorf("%s never settled, or done %d never reported", c.Key(), i+1)
		}
	}
}

// TestExperimentCancelled: a cancelled context stops dispatch, and
// Experiment returns its error instead of rendering.
func TestExperimentCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(parCfg())
	settled := 0
	_, err := r.Experiment(ctx, "table3", 2, func(CellResult, int, int) { settled++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Experiment under a cancelled context returned %v, want context.Canceled", err)
	}
	if settled != 0 || len(r.Failures()) != 0 {
		t.Errorf("cancelled before dispatch, yet %d cells settled and %d failed", settled, len(r.Failures()))
	}
}

// TestCancelledCellNotPoisoned: a cancellation failure is environmental, not
// a property of the cell, so it must not be memoized — the next caller with
// a live context gets a real simulation, bit-identical to an undisturbed run.
func TestCancelledCellNotPoisoned(t *testing.T) {
	cfg := parCfg()
	c := phpCell("xeon", "ddmalloc", workload.PhpBB().Name, 1)

	want := NewRunner(cfg).Run(c)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(cfg)
	if res := r.RunContext(ctx, c); !res.Failed {
		t.Fatal("cancelled context did not fail the cell")
	}
	if len(r.Failures()) != 1 {
		t.Fatalf("want 1 recorded cancellation, got %d", len(r.Failures()))
	}
	got := r.Run(c)
	if got.Failed {
		t.Fatal("cancellation failure was memoized: live re-run still failed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("re-run after cancellation differs from an undisturbed run")
	}
	if len(r.Failures()) != 1 {
		t.Error("successful re-run recorded a spurious failure")
	}
}

// TestCellCacheConcurrentStore: two runners in one process (webmm serve)
// share a cache directory, so store must be atomic under concurrency — a
// torn or cross-linked temp file would corrupt an entry another request is
// loading. Races many stores of the same and distinct cells and checks every
// entry round-trips and no temp files are left behind.
func TestCellCacheConcurrentStore(t *testing.T) {
	dir := t.TempDir()
	cc, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parCfg()
	wl := workload.PhpBB().Name
	cells := []Cell{
		phpCell("xeon", "default", wl, 1),
		phpCell("xeon", "region", wl, 2),
		phpCell("niagara", "ddmalloc", wl, 4),
	}
	results := make([]CellResult, len(cells))
	for i, c := range cells {
		results[i] = CellResult{Cell: c, TxnsPerStream: float64(i + 1)}
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				i := (g + rep) % len(cells)
				cc.store(cfg, cells[i], results[i])
			}
		}(g)
	}
	wg.Wait()

	for i, c := range cells {
		got, ok := cc.load(cfg, c)
		if !ok || !reflect.DeepEqual(got, results[i]) {
			t.Errorf("cell %d does not round-trip after concurrent stores", i)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("concurrent stores left temp files behind: %v", tmps)
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(entries) != len(cells) {
		t.Errorf("want %d cache entries, got %d", len(cells), len(entries))
	}
}

// TestCellCache exercises the on-disk cache: store-on-miss, load in a fresh
// runner, config-keyed invalidation, and corruption tolerance.
func TestCellCache(t *testing.T) {
	dir := t.TempDir()
	cc, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parCfg()
	c := phpCell("xeon", "region", workload.PhpBB().Name, 1)

	r1 := NewRunner(cfg)
	r1.Cache = cc
	want := r1.Run(c)

	// The entry must be on disk and loadable directly.
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want 1 cache entry, got %d (err %v)", len(entries), err)
	}
	if got, ok := cc.load(cfg, c); !ok || !reflect.DeepEqual(got, want) {
		t.Fatal("cache load does not round-trip the stored result")
	}

	// A fresh runner (a new process, effectively) must serve it from disk
	// and return an identical result.
	r2 := NewRunner(cfg)
	r2.Cache = cc
	if got := r2.Run(c); !reflect.DeepEqual(got, want) {
		t.Error("cached result differs from simulated result")
	}

	// Any config change keys differently: no stale hits.
	cfg2 := cfg
	cfg2.Seed++
	if _, ok := cc.load(cfg2, c); ok {
		t.Error("cache hit across differing configs")
	}

	// A corrupted entry is ignored and the cell re-simulated bit-identically.
	if err := os.WriteFile(entries[0], []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cc.load(cfg, c); ok {
		t.Error("corrupted cache entry satisfied a load")
	}
	r3 := NewRunner(cfg)
	r3.Cache = cc
	if got := r3.Run(c); !reflect.DeepEqual(got, want) {
		t.Error("re-simulated result after corruption differs")
	}

	// A nil cache is inert.
	var nilCache *CellCache
	if _, ok := nilCache.load(cfg, c); ok {
		t.Error("nil cache returned a hit")
	}
	nilCache.store(cfg, c, want)
}
