package experiments

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webmm/internal/budget"
	"webmm/internal/mem"
	"webmm/internal/memsys"
	"webmm/internal/telemetry"
)

// Sibling cells — cells with one trace key: equal but for MemSched, a
// restart period past the run, or a core count of whole L2 clusters —
// share one pricing pass under RunAll. These tests pin that the sharing is
// invisible: the same results, memo, cache, singleflight and metrics as
// running every cell alone, and no sharing where faults, leases or remote
// execution are drawn per cell.

// memSchedSiblings is one (allocator, cores) point of the memsched sweep:
// the bus cell and every policy.
func memSchedSiblings(alloc string, cores int) []Cell {
	out := []Cell{memSchedCell(alloc, "", cores)}
	for _, p := range memsys.PolicyNames() {
		out = append(out, memSchedCell(alloc, string(p), cores))
	}
	return out
}

// TestGroupMatchesAlone: every cell of the memsched sweep, bus siblings
// included, run through RunAll at one and two jobs, must equal the same
// cell run alone, under both fidelities. Each allocator's 4- and 8-core
// points, the bus and every policy at each, share one 8-core pass.
func TestGroupMatchesAlone(t *testing.T) {
	sampled := memSchedCfg()
	sampled.Measure = 16 // one detail and one warming round of the sampled schedule
	sampled.Fidelity = FidelitySampled
	for _, cfg := range []Config{memSchedCfg(), sampled} {
		cells := NewRunner(cfg).MemSchedCells()
		alone := NewRunner(cfg)
		want := make([]CellResult, len(cells))
		for i, c := range cells {
			if want[i] = alone.Run(c); want[i].Failed {
				t.Fatalf("%s failed alone", c.Key())
			}
		}
		for _, jobs := range []int{1, 2} {
			r := NewRunner(cfg)
			got := r.RunAll(cells, jobs)
			for i, c := range cells {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("fidelity %q, jobs %d: %s grouped differs from alone:\n got %+v\nwant %+v",
						cfg.Fidelity, jobs, c.Key(), got[i].Res, want[i].Res)
				}
			}
			siblings := len(MemSchedCores) * (1 + len(memsys.PolicyNames()))
			for _, mc := range r.BuildManifest(nil).Cells {
				if mc.Shared != siblings {
					t.Errorf("fidelity %q, jobs %d: manifest row %+v not shared by its %d siblings",
						cfg.Fidelity, jobs, mc, siblings)
				}
			}
		}
	}
}

// TestFig7CoreSiblingsMatchAlone: Figure 7's core sweep through RunAll at
// one and two jobs equals every cell run alone. A Xeon L2 serves one core
// pair, so each allocator's 2-, 4- and 8-core cells share the 8-core pass;
// the 1-core cell leaves its cluster half empty and runs alone, and so
// does every Niagara cell, whose one L2 serves all eight cores.
func TestFig7CoreSiblingsMatchAlone(t *testing.T) {
	cfg := memSchedCfg()
	cells := NewRunner(cfg).CellsFor("fig7")
	if len(cells) != 24 {
		t.Fatalf("Figure 7 plans %d cells, want 24", len(cells))
	}
	alone := NewRunner(cfg)
	want := make([]CellResult, len(cells))
	for i, c := range cells {
		if want[i] = alone.Run(c); want[i].Failed {
			t.Fatalf("%s failed alone", c.Key())
		}
	}
	for _, jobs := range []int{1, 2} {
		r := NewRunner(cfg)
		var got []CellResult
		spans := spanCounts(t, r, func() { got = r.RunAll(cells, jobs) })
		for i, c := range cells {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("jobs %d: %s grouped differs from alone:\n got %+v\nwant %+v", jobs, c.Key(), got[i].Res, want[i].Res)
			}
		}
		if spans["measure"] != 18 {
			t.Errorf("jobs %d: %d measure spans for 24 cells, want 18", jobs, spans["measure"])
		}
		for _, mc := range r.BuildManifest(nil).Cells {
			shared := 0
			if mc.Platform == "xeon" && mc.Cores > 1 {
				shared = 3
			}
			if mc.Shared != shared {
				t.Errorf("jobs %d: %s/%s/%d cores shared %d, want %d", jobs, mc.Platform, mc.Alloc, mc.Cores, mc.Shared, shared)
			}
		}
	}
}

// gateBackend is an in-memory cell cache that counts stores and holds its
// first Load until release is closed, keeping the caller's group in
// flight.
type gateBackend struct {
	CacheBackend
	once             sync.Once
	started, release chan struct{}
	stores           atomic.Int64
}

func newGateBackend() *gateBackend {
	return &gateBackend{CacheBackend: NewMemBackend(),
		started: make(chan struct{}), release: make(chan struct{})}
}

func (b *gateBackend) Load(key string) ([]byte, bool) {
	b.once.Do(func() {
		close(b.started)
		<-b.release
	})
	return b.CacheBackend.Load(key)
}

func (b *gateBackend) Store(key string, data []byte) {
	b.stores.Add(1)
	b.CacheBackend.Store(key, data)
}

// awaitRunWaiter blocks until some goroutine is parked in RunContext's
// wait for another caller's in-flight leader.
func awaitRunWaiter(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, ").RunContext(") {
				return
			}
		}
	}
	t.Fatal("no Run call waited on the in-flight group")
}

// TestGroupSingleflight: a Run of a member started while its group is in
// flight waits for the group and returns the group's result; the group
// misses and stores every member once, and nothing is simulated twice.
func TestGroupSingleflight(t *testing.T) {
	cells := memSchedSiblings("default", 4)
	be := newGateBackend()
	r := NewRunner(memSchedCfg())
	r.Cache = NewCellCacheOn(be)

	var grouped []CellResult
	done := make(chan struct{})
	go func() {
		grouped = r.RunAll(cells, 1)
		close(done)
	}()
	<-be.started
	member := cells[2]
	waited := make(chan CellResult)
	go func() { waited <- r.Run(member) }()
	awaitRunWaiter(t)
	close(be.release)
	<-done
	if got := <-waited; got.Failed || !reflect.DeepEqual(got, grouped[2]) {
		t.Fatalf("Run(%s) during its group returned %+v, want the group's %+v", member.Key(), got.Res, grouped[2].Res)
	}
	m := r.BuildManifest(nil)
	n := uint64(len(cells))
	if m.CacheMisses != n || m.CacheHits != 0 || m.MemoHits != 0 {
		t.Errorf("cache misses %d, hits %d, memo hits %d; want %d, 0, 0", m.CacheMisses, m.CacheHits, m.MemoHits, n)
	}
	if got := be.stores.Load(); got != int64(n) {
		t.Errorf("%d cache stores, want one per member (%d)", got, n)
	}
}

// spanCounts runs fn under a tracing session on r and counts the trace's
// spans: "group" and "cell" by category, phases by name.
func spanCounts(t *testing.T, r *Runner, fn func()) map[string]int {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tel, err := telemetry.New(telemetry.Options{TracePath: path})
	if err != nil {
		t.Fatal(err)
	}
	r.Tel = tel
	fn()
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counts := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct{ Name, Cat, Ph string }
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		switch {
		case ev.Ph != "X":
		case ev.Cat == "phase":
			counts[ev.Name]++
		default:
			counts[ev.Cat]++
		}
	}
	return counts
}

// TestGroupSpans: a group traces one group span holding the shared
// construct, warmup and measure, and one cell span per member holding its
// solve.
func TestGroupSpans(t *testing.T) {
	cells := memSchedSiblings("region", 4)
	r := NewRunner(memSchedCfg())
	got := spanCounts(t, r, func() { r.RunAll(cells, 1) })
	n := len(cells)
	want := map[string]int{"group": 1, "construct": 1, "warmup": 1, "measure": 1, "cell": n, "solve": n}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spans %v, want %v", got, want)
	}
}

// TestGroupingOffPerCell: with remote execution, an active fault plan or a
// budget controller, every sibling runs alone: memsched siblings, a Ruby
// cell beside its beyond-horizon restart period and core-count siblings
// alike.
func TestGroupingOffPerCell(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		cells []Cell
	}{
		{"memsched", memSchedCfg(), memSchedSiblings("ddmalloc", 4)},
		{"ruby", rubyHorizonCfg(), []Cell{rubyCell("ddmalloc", 0), rubyCell("ddmalloc", 5)}},
		{"cores", memSchedCfg(), []Cell{memSchedCell("ddmalloc", "", 2), memSchedCell("ddmalloc", "", 4), memSchedCell("ddmalloc", "", 8)}},
	} {
		n := len(tc.cells)
		var calls atomic.Int64
		r := NewRunner(tc.cfg)
		r.Exec = func(ctx context.Context, c Cell) (CellResult, error) {
			calls.Add(1)
			return CellResult{Cell: c}, nil
		}
		r.RunAll(tc.cells, 2)
		if got := calls.Load(); got != int64(n) {
			t.Errorf("%s: Exec called %d times for %d siblings, want one call per cell", tc.name, got, n)
		}

		faulty := NewRunner(tc.cfg)
		faulty.Faults = FaultPlan{Budget: 64 * mem.GiB} // active, but never denies
		ctrl := budget.New(4*mem.GiB, budget.Policy{})
		defer ctrl.Close()
		leased := NewRunner(tc.cfg)
		leased.Budget = ctrl
		for name, r := range map[string]*Runner{"fault plan": faulty, "budget controller": leased} {
			got := spanCounts(t, r, func() { r.RunAll(tc.cells, 1) })
			if got["group"] != 0 || got["measure"] != n {
				t.Errorf("%s, %s: %d group spans and %d measure spans for %d siblings, want 0 and %d",
					tc.name, name, got["group"], got["measure"], n, n)
			}
		}
	}
}

// rubyHorizonCfg is the cheapest Ruby configuration: each stream runs 4
// transactions, 1 warm and 3 measured (rounds).
func rubyHorizonCfg() Config {
	return Config{Scale: 1024, Warmup: 1, Measure: 1, Seed: 20090615}
}

// TestRestartBeyondHorizonSharesPass: a restart period longer than the
// transactions a stream runs never fires, so its cell prices the
// no-restart trace and shares that cell's pass; a period at or inside the
// horizon runs alone. Either way RunAll equals every cell run alone.
func TestRestartBeyondHorizonSharesPass(t *testing.T) {
	cfg := rubyHorizonCfg()
	if warm, meas := NewRunner(cfg).rounds(rubyCell("glibc", 0)); warm+meas != 4 {
		t.Fatalf("horizon %d+%d transactions, want 4", warm, meas)
	}
	periods := []int{0, 3, 4, 5, 19}
	shared := map[int]int{0: 3, 3: 0, 4: 0, 5: 3, 19: 3}
	var cells []Cell
	for _, alloc := range []string{"glibc", "ddmalloc"} {
		for _, p := range periods {
			cells = append(cells, rubyCell(alloc, p))
		}
	}
	alone := NewRunner(cfg)
	want := make([]CellResult, len(cells))
	for i, c := range cells {
		if want[i] = alone.Run(c); want[i].Failed {
			t.Fatalf("%s failed alone", c.Key())
		}
	}
	// The boundary is real: a period of 4 restarts after the last
	// transaction, and its priced events change the result; 5 never fires.
	for i := 0; i < len(cells); i += len(periods) {
		none, at, past := want[i], want[i+2], want[i+3]
		if reflect.DeepEqual(at.Res, none.Res) {
			t.Errorf("%s equals the no-restart cell; the restart at the horizon was not priced", at.Key())
		}
		if !reflect.DeepEqual(past.Res, none.Res) || past.Footprint != none.Footprint || past.Calls != none.Calls {
			t.Errorf("%s differs from the no-restart cell", past.Key())
		}
	}
	for _, jobs := range []int{1, 2} {
		r := NewRunner(cfg)
		got := r.RunAll(cells, jobs)
		for i, c := range cells {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("jobs %d: %s grouped differs from alone:\n got %+v\nwant %+v", jobs, c.Key(), got[i].Res, want[i].Res)
			}
		}
		for _, mc := range r.BuildManifest(nil).Cells {
			if mc.Shared != shared[mc.RestartEvery] {
				t.Errorf("jobs %d: %s/ruby:%d shared %d, want %d", jobs, mc.Alloc, mc.RestartEvery, mc.Shared, shared[mc.RestartEvery])
			}
		}
	}
}

// TestGroupFailureRunsAlone: a group whose pass fails publishes nothing,
// and its members run alone: a sibling with a bad policy fails on its own
// while the others succeed exactly as alone.
func TestGroupFailureRunsAlone(t *testing.T) {
	good := memSchedSiblings("default", 4)[:2]
	bad := memSchedCell("default", "roundrobin", 4)
	r := NewRunner(memSchedCfg())
	got := r.RunAll(append(good, bad), 1)
	alone := NewRunner(memSchedCfg())
	for i, c := range good {
		if want := alone.Run(c); !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s after a failed group differs from alone", c.Key())
		}
	}
	if !got[2].Failed {
		t.Fatal("the sibling with an unknown policy did not fail")
	}
	if fails := r.Failures(); len(fails) != 1 || fails[0].Cell != bad || fails[0].Attempts != 1 {
		t.Fatalf("failures %v, want one single-attempt failure of %s", fails, bad.Key())
	}
}

// TestGroupMetricsMatchAlone: grouping moves no metric a cell reports: the
// cell count, the DRAM row counters and the per-class counters read the
// same as when every cell runs alone. The 4-core siblings share the 8-core
// pass, so a member's class counters must count its own streams only.
func TestGroupMetricsMatchAlone(t *testing.T) {
	cells := append(memSchedSiblings("region", 4), memSchedSiblings("region", 8)...)
	grouped, alone := NewRunner(memSchedCfg()), NewRunner(memSchedCfg())
	grouped.Tel, alone.Tel = telemetry.NewLive(), telemetry.NewLive()
	grouped.RunAll(cells, 1)
	for _, c := range cells {
		alone.Run(c)
	}
	read := func(r *Runner, name string, lbl telemetry.Labels) uint64 {
		return r.Tel.Metrics().Counter(name, "", lbl).Value()
	}
	type series struct {
		name string
		lbl  telemetry.Labels
	}
	check := []series{{"webmm_cells_total", nil}}
	for _, p := range memsys.PolicyNames() {
		lbl := telemetry.Labels{"policy": string(p)}
		for _, name := range []string{"webmm_dram_row_hits_total", "webmm_dram_row_conflicts_total", "webmm_dram_row_closed_total"} {
			check = append(check, series{name, lbl})
		}
	}
	// The class counters must agree class by class; this workload runs no
	// OS-class events, so only their sum must be nonzero.
	var classSum uint64
	for _, cls := range classLabels {
		lbl := telemetry.Labels{"class": cls}
		for _, name := range []string{"webmm_class_instr_total", "webmm_class_l2_miss_total"} {
			g, a := read(grouped, name, lbl), read(alone, name, lbl)
			if g != a {
				t.Errorf("%s%v: grouped %d, alone %d", name, lbl, g, a)
			}
			classSum += a
		}
	}
	if classSum == 0 {
		t.Error("no class counter counted anything")
	}
	for _, s := range check {
		g, a := read(grouped, s.name, s.lbl), read(alone, s.name, s.lbl)
		if g != a || a == 0 {
			t.Errorf("%s%v: grouped %d, alone %d", s.name, s.lbl, g, a)
		}
	}
}
