package experiments

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"webmm/internal/mem"
	"webmm/internal/workload"
)

// faultCfg is a cheap config for the failure-path tests.
func faultCfg() Config { return Config{Scale: 256, Warmup: 1, Measure: 1, Seed: 7} }

func TestParseFaults(t *testing.T) {
	cases := []struct {
		in   string
		want FaultPlan
	}{
		{"", FaultPlan{}},
		{"oom:0.01", FaultPlan{OOMRate: 0.01}},
		{"panic:1", FaultPlan{PanicRate: 1}},
		{"budget:64MiB", FaultPlan{Budget: 64 * mem.MiB}},
		{"budget:2G", FaultPlan{Budget: 2 * mem.GiB}},
		{"budget:4096", FaultPlan{Budget: 4096}},
		{"cachecorrupt", FaultPlan{CacheCorrupt: true}},
		{"squeeze:0.5", FaultPlan{Squeeze: 0.5}},
		{"oom:0.5, panic:0.25, budget:1KiB, squeeze:0.75, cachecorrupt",
			FaultPlan{OOMRate: 0.5, PanicRate: 0.25, Budget: mem.KiB, Squeeze: 0.75, CacheCorrupt: true}},
	}
	for _, tc := range cases {
		got, err := ParseFaults(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseFaults(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"oom", "oom:2", "oom:x", "panic:-1", "budget:",
		"budget:12.5MiB", "cachecorrupt:yes", "frobnicate:1", "oom:0.1,,panic:0.1",
		"squeeze", "squeeze:0", "squeeze:-1", "squeeze:x"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted invalid input", bad)
		}
	}
	if (FaultPlan{CacheCorrupt: true}).Active() {
		t.Error("CacheCorrupt alone must not bypass the cache (Active)")
	}
	if !(FaultPlan{OOMRate: 0.01}).Active() || !(FaultPlan{Budget: 1}).Active() ||
		!(FaultPlan{Squeeze: 0.5}).Active() {
		t.Error("oom/budget/squeeze plans must be Active")
	}
}

// TestInjectedPanicIsolated: with PanicRate 1 every attempt panics; the
// panic must be recovered, retried once, reported via Failures, and the
// process (and other cells) must keep running.
func TestInjectedPanicIsolated(t *testing.T) {
	r := NewRunner(faultCfg())
	r.Faults = FaultPlan{PanicRate: 1}
	c := phpCell("xeon", "default", workload.PhpBB().Name, 1)

	res := r.Run(c)
	if !res.Failed {
		t.Fatal("cell with guaranteed panic did not report Failed")
	}
	fails := r.Failures()
	if len(fails) != 1 {
		t.Fatalf("want 1 recorded failure, got %d", len(fails))
	}
	f := fails[0]
	if f.Cell != c || f.Attempts != 2 {
		t.Errorf("failure = %+v; want cell %+v after 2 attempts", f, c)
	}
	if !strings.Contains(f.Err.Error(), "injected fault") {
		t.Errorf("failure error %q does not identify the injected panic", f.Err)
	}
	if len(f.Stack) == 0 {
		t.Error("recovered panic carries no stack")
	}

	// The failed result is memoized: no second round of attempts.
	if again := r.Run(c); !again.Failed {
		t.Error("memoized failed cell lost its Failed mark")
	}
	if len(r.Failures()) != 1 {
		t.Error("re-running a failed cell recorded a duplicate failure")
	}
}

// TestConfigErrorNotRetried: deterministic configuration errors fail on the
// first attempt, without a retry and without a panic stack — including more
// cores than the platform has, which used to panic in machine.New and be
// retried.
func TestConfigErrorNotRetried(t *testing.T) {
	for _, c := range []Cell{
		{Platform: "vax", Alloc: "default", Workload: workload.PhpBB().Name, Cores: 1},
		{Platform: "xeon", Alloc: "default", Workload: workload.PhpBB().Name, Cores: 9},
	} {
		r := NewRunner(faultCfg())
		if res := r.Run(c); !res.Failed {
			t.Fatalf("%s did not fail", c.Key())
		}
		fails := r.Failures()
		if len(fails) != 1 || fails[0].Attempts != 1 {
			t.Fatalf("%s: config error retried: %+v", c.Key(), fails)
		}
		if len(fails[0].Stack) != 0 {
			t.Errorf("%s: config error recorded a panic stack", c.Key())
		}
	}
}

// TestRunAllSurvivesFailures: a failing cell inside a parallel plan must not
// sink the other cells.
func TestRunAllSurvivesFailures(t *testing.T) {
	r := NewRunner(faultCfg())
	wl := workload.PhpBB().Name
	cells := []Cell{
		phpCell("xeon", "default", wl, 1),
		{Platform: "xeon", Alloc: "no-such-alloc", Workload: wl, Cores: 1},
		phpCell("xeon", "region", wl, 1),
	}
	got := r.RunAll(cells, 2)
	if got[0].Failed || got[2].Failed {
		t.Error("healthy cells failed alongside a broken one")
	}
	if !got[1].Failed {
		t.Error("broken cell did not report Failed")
	}
	if len(r.Failures()) != 1 {
		t.Errorf("want 1 failure, got %d", len(r.Failures()))
	}
}

func TestCellTimeout(t *testing.T) {
	r := NewRunner(faultCfg())
	r.Timeout = time.Nanosecond
	res := r.Run(phpCell("xeon", "default", workload.PhpBB().Name, 1))
	if !res.Failed {
		t.Fatal("1ns timeout did not fail the cell")
	}
	fails := r.Failures()
	if len(fails) != 1 || fails[0].Attempts != 1 {
		t.Fatalf("timeout must not be retried: %+v", fails)
	}
	if !strings.Contains(fails[0].Err.Error(), "timeout") {
		t.Errorf("timeout error = %q", fails[0].Err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(faultCfg())
	r.Ctx = ctx
	res := r.Run(phpCell("xeon", "default", workload.PhpBB().Name, 1))
	if !res.Failed {
		t.Fatal("cancelled context did not fail the cell")
	}
	if fails := r.Failures(); len(fails) != 1 || fails[0].Err != context.Canceled {
		t.Fatalf("want context.Canceled, got %+v", fails)
	}
}

// TestOOMInjectionSurvivesRubyRestart: with every Map failing, the Ruby
// runtime's process restart cannot remap its data and panics; the runner
// must contain that to one failed cell.
func TestOOMInjectionSurvivesRubyRestart(t *testing.T) {
	r := NewRunner(faultCfg())
	r.Faults = FaultPlan{OOMRate: 1}
	c := Cell{Platform: "xeon", Alloc: "glibc", Workload: workload.Rails().Name,
		Cores: 1, Ruby: true, RestartEvery: 2}
	res := r.Run(c)
	if !res.Failed {
		t.Fatal("total OOM injection did not fail the Ruby cell")
	}
	if fails := r.Failures(); len(fails) != 1 || fails[0].Attempts != 2 {
		t.Fatalf("recovered panic should be retried once: %+v", fails)
	}
}

// TestActiveFaultsBypassCache: an active plan must neither load from nor
// store to the cell cache.
func TestActiveFaultsBypassCache(t *testing.T) {
	dir := t.TempDir()
	cc, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultCfg()
	c := phpCell("xeon", "default", workload.PhpBB().Name, 1)

	// Seed the cache with a clean result.
	clean := NewRunner(cfg)
	clean.Cache = cc
	clean.Run(c)

	r := NewRunner(cfg)
	r.Cache = cc
	r.Faults = FaultPlan{PanicRate: 1}
	if res := r.Run(c); !res.Failed {
		t.Fatal("cached clean result masked the injected faults")
	}
	// The clean entry must survive untouched for fault-free runs.
	entries, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(entries) != 1 {
		t.Fatalf("fault run disturbed the cache: %d entries", len(entries))
	}
	if _, ok := cc.load(cfg, c); !ok {
		t.Error("clean cache entry was damaged by the fault run")
	}
}

// TestCacheCorruptionSelfHeals: a CacheCorrupt run plants a broken entry;
// the next fault-free run must reject it, delete it, re-simulate, and leave
// a valid entry behind.
func TestCacheCorruptionSelfHeals(t *testing.T) {
	dir := t.TempDir()
	cc, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultCfg()
	c := phpCell("xeon", "default", workload.PhpBB().Name, 1)

	r1 := NewRunner(cfg)
	r1.Cache = cc
	r1.Faults = FaultPlan{CacheCorrupt: true}
	want := r1.Run(c)
	if want.Failed {
		t.Fatal("CacheCorrupt must not perturb the simulation itself")
	}

	// The planted entry is invalid; load must miss and remove it.
	if _, ok := cc.load(cfg, c); ok {
		t.Fatal("corrupted entry satisfied a load")
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(entries) != 0 {
		t.Fatalf("corrupted entry not deleted: %v", entries)
	}

	// A fresh fault-free runner re-simulates and stores a valid entry.
	r2 := NewRunner(cfg)
	r2.Cache = cc
	got := r2.Run(c)
	if got.Failed || !reflect.DeepEqual(got, want) {
		t.Error("re-simulated result differs after cache corruption")
	}
	if _, ok := cc.load(cfg, c); !ok {
		t.Error("healed cache entry is not loadable")
	}
}
