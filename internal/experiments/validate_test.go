package experiments

import (
	"context"
	"testing"

	"webmm/internal/apprt"
	"webmm/internal/machine"
	"webmm/internal/memsys"
	"webmm/internal/workload"
)

// TestCellValidate: the one cell check accepts the plans' cells and
// rejects every cell the runner could only fail, or would run as something
// else.
func TestCellValidate(t *testing.T) {
	r := NewRunner(Config{Scale: 64, Measure: 1})
	php := phpCell("xeon", "ddmalloc", workload.PhpBB().Name, 8)
	for _, c := range append(r.Fig5Cells(), php, rubyCell("glibc", 62), rubyCell("ddmalloc", 0),
		Cell{Platform: "niagara", Alloc: "region", Workload: workload.CakePHP().Name, Cores: 1, MemSched: "bliss"}) {
		if err := c.Validate(); err != nil {
			t.Errorf("%s rejected: %v", c.Key(), err)
		}
	}
	with := func(edit func(*Cell)) Cell {
		c := php
		edit(&c)
		return c
	}
	for name, c := range map[string]Cell{
		"no alloc":         with(func(c *Cell) { c.Alloc = "" }),
		"no workload":      with(func(c *Cell) { c.Workload = "" }),
		"unknown platform": with(func(c *Cell) { c.Platform = "vax" }),
		"unknown alloc":    with(func(c *Cell) { c.Alloc = "no-such" }),
		"unknown workload": with(func(c *Cell) { c.Workload = "phpbb" }),
		"zero cores":       with(func(c *Cell) { c.Cores = 0 }),
		"too many cores":   with(func(c *Cell) { c.Cores = 9 }),
		"php on glibc":     with(func(c *Cell) { c.Alloc = "glibc" }),
		"php restart":      with(func(c *Cell) { c.RestartEvery = 7 }),
		"unknown policy":   with(func(c *Cell) { c.MemSched = "fifo" }),
		"ruby on region":   {Platform: "xeon", Alloc: "region", Workload: workload.Rails().Name, Cores: 8, Ruby: true},
		"negative restart": rubyCell("glibc", -5),
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: %+v accepted", name, c)
		}
	}
}

// TestCellValidateConstructsNothing: cell validation decides from registry
// lookups; it runs on every single-cell request, on the coordinator and
// again on the worker. Building an allocator to read its code size (a
// 64 GiB address space, an event buffer and DDmalloc's segment table, 28
// allocations per call), or the platform to read its core count (2 more),
// must not come back onto that path.
func TestCellValidateConstructsNothing(t *testing.T) {
	c := Cell{Platform: "xeon", Alloc: "ddmalloc", Workload: "phpBB", Cores: 8}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = c.Validate() }); n > 0 {
		t.Errorf("Cell.Validate made %.0f allocations per call, want 0", n)
	}
}

// FuzzCellBuild: every (Config, Cell) pair the two validators accept builds
// — the machine, the DRAM model when the cell names a policy, and every
// stream's runtime — without a panic or an error, so a validated cell can
// only fail for its own deterministic reasons. Names are drawn from the
// registries by index; cores, the restart period and the seed are raw.
// Cell.Budget is left out: a budget too small for the allocator is the
// cell's deterministic FAILED verdict (the heap-limit sweep's cliff), not a
// validation gap.
func FuzzCellBuild(f *testing.F) {
	// platform, alloc, workload, policy (0 = bus) indices; cores; ruby;
	// restart period; scale exponent; Xeon large pages; seed.
	f.Add(uint8(0), uint8(2), uint8(4), uint8(0), 8, false, 0, uint8(6), false, uint64(7))
	f.Add(uint8(1), uint8(0), uint8(6), uint8(2), 1, false, 0, uint8(10), false, uint64(1))
	f.Add(uint8(0), uint8(5), uint8(7), uint8(4), 4, true, 8, uint8(8), true, uint64(20090615))
	f.Add(uint8(1), uint8(2), uint8(7), uint8(1), 8, true, 2, uint8(10), false, uint64(3))
	f.Add(uint8(0), uint8(1), uint8(0), uint8(3), 2, false, 0, uint8(0), true, uint64(5))
	platforms := machine.PlatformNames()
	allocs := apprt.AllocatorNames()
	workloads := append(workload.Profiles(), workload.Rails())
	policies := append([]memsys.PolicyName{""}, memsys.PolicyNames()...)
	f.Fuzz(func(t *testing.T, plat, alloc, wl, policy uint8, cores int, ruby bool, restart int,
		scaleExp uint8, largePages bool, seed uint64) {
		cfg := Config{Scale: 1 << (scaleExp % 11), Warmup: 1, Measure: 1, Seed: seed, XeonLargePages: largePages}
		c := Cell{
			Platform: platforms[int(plat)%len(platforms)],
			Alloc:    allocs[int(alloc)%len(allocs)],
			Workload: workloads[int(wl)%len(workloads)].Name,
			Cores:    cores, Ruby: ruby, RestartEvery: restart,
			MemSched: string(policies[int(policy)%len(policies)]),
		}
		if cfg.Validate() != nil || c.Validate() != nil {
			return
		}
		if _, err := NewRunner(cfg).build(context.Background(), []Cell{c}, nil); err != nil {
			t.Fatalf("validated cell %+v under %+v does not build: %v", c, cfg, err)
		}
	})
}
