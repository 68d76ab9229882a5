package server

import (
	"bytes"
	"context"
	"io"
	"testing"
)

// FuzzRunRequest fuzzes the POST /run trust boundary: a body decoded the way
// handleRun decodes it, then validated and resolved by buildJob. Neither
// may panic, an accepted job's runner config must be valid and canonical,
// and an accepted cell must pass Cell.Validate — the one cell check, which
// FuzzCellBuild (internal/experiments) holds to building without a panic
// or an error. The seed corpus (testdata/fuzz/FuzzRunRequest) holds the CI
// smoke bodies, TestServeBadRequests' bodies, and the cells and rounds that
// used to pass admission and fail or run as something else after it.
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
		if err != nil {
			return
		}
		if cfg := j.r.Cfg; cfg.Validate() != nil || cfg != j.r.Cfg {
			t.Fatalf("admitted runner config %+v is not valid and canonical", j.r.Cfg)
		}
		if j.exp != "" {
			return
		}
		if err := j.cell.Validate(); err != nil {
			t.Fatalf("admitted cell %+v fails validation: %v", j.cell, err)
		}
	})
}
