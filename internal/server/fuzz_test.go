package server

import (
	"bytes"
	"context"
	"io"
	"testing"

	"webmm/internal/apprt"
	"webmm/internal/experiments"
	"webmm/internal/machine"
	"webmm/internal/mem"
	"webmm/internal/memsys"
	"webmm/internal/workload"
)

// FuzzRunRequest fuzzes the POST /run trust boundary: a body decoded the way
// handleRun decodes it, then validated and resolved by buildJob. Neither
// may panic, and a single-cell job buildJob accepts must construct — the
// machine, the DRAM model when the cell names a policy, and stream 0's
// runtime — without a panic or an error, because a cell that can only fail
// after admission has taken a queue slot that validation should have
// refused. The seed corpus (testdata/fuzz/FuzzRunRequest) holds the CI
// smoke bodies, TestServeBadRequests' bodies, and the cells that used to
// pass validation and fail after admission.
func FuzzRunRequest(f *testing.F) {
	s, err := New(Config{Jobs: 1, Sim: testSim()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRunRequest(nil, io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			return
		}
		j, err := s.buildJob(context.Background(), req)
		// Every distinct config resolves its own runner; drop them so a
		// long fuzz run does not accumulate one per input.
		s.mu.Lock()
		clear(s.runners)
		s.mu.Unlock()
		if err != nil || j.isExp {
			return
		}
		if err := constructCell(j.r.Cfg, j.cell); err != nil {
			t.Fatalf("admitted cell %+v does not construct: %v", j.cell, err)
		}
	})
}

// constructCell builds what the runner builds before a cell's first
// pricing round, for stream 0 only. A static Cell.Budget is not armed: a
// budget too small for the allocator is the cell's deterministic FAILED
// verdict (the heap-limit sweep's cliff), not a validation gap.
func constructCell(cfg experiments.Config, c experiments.Cell) error {
	plat, err := machine.PlatformByName(c.Platform)
	if err != nil {
		return err
	}
	if c.MemSched != "" {
		dram, err := memsys.NewDRAM(memsys.DRAMConfig{Policy: memsys.PolicyName(c.MemSched)}, plat.Mem.Link(), c.Cores)
		if err != nil {
			return err
		}
		plat.Mem = dram
	}
	prof, err := workload.ByName(c.Workload)
	if err != nil {
		return err
	}
	allocCode, err := apprt.AllocCodeSize(c.Alloc)
	if err != nil {
		return err
	}
	m := machine.New(plat, c.Cores, allocCode, 192*mem.KiB, cfg.Seed)
	env := m.Streams()[0].Env
	if c.Ruby {
		_, err = apprt.NewRuby(env, c.Alloc, prof, cfg.Scale, c.RestartEvery, apprt.AllocOptions{})
	} else {
		_, err = apprt.NewPHP(env, c.Alloc, prof, cfg.Scale, apprt.AllocOptions{})
	}
	return err
}
