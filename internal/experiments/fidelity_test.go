package experiments

import (
	"math"
	"testing"

	"webmm/internal/workload"
)

// TestSampledFidelityIPCError bounds the systematic error of -fidelity
// sampled: on a long measurement phase at scale 4, the sampled IPC must
// stay within 2% of the full-fidelity IPC for the same cell. The sampled
// estimate is unbiased per transaction (counters and transaction counts
// both come from the detail rounds only), so the deviation left is the
// variance of which transactions land in the detail rounds.
func TestSampledFidelityIPCError(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation pair")
	}
	cell := phpCell("xeon", "default", workload.MediaWikiRW().Name, 2)
	base := Config{Scale: 4, Warmup: 2, Measure: 32, Seed: 20090615}

	full := NewRunner(base).Run(cell)
	if full.Failed {
		t.Fatal("full-fidelity cell failed")
	}
	scfg := base
	scfg.Fidelity = FidelitySampled
	sampled := NewRunner(scfg).Run(cell)
	if sampled.Failed {
		t.Fatal("sampled-fidelity cell failed")
	}

	fullIPC, sampledIPC := full.Res.IPC(), sampled.Res.IPC()
	if fullIPC <= 0 || sampledIPC <= 0 {
		t.Fatalf("non-positive IPC: full=%v sampled=%v", fullIPC, sampledIPC)
	}
	relErr := math.Abs(sampledIPC-fullIPC) / fullIPC
	t.Logf("IPC full=%.6f sampled=%.6f relative error=%.4f%%",
		fullIPC, sampledIPC, 100*relErr)
	if relErr >= 0.02 {
		t.Errorf("sampled IPC deviates %.2f%% from full, want < 2%%", 100*relErr)
	}

	// Sampling must actually skip work: far fewer transactions priced.
	if sampled.TxnsPerStream >= full.TxnsPerStream/2 {
		t.Errorf("sampled measured %.0f txns/stream, full %.0f; sampling should measure far fewer",
			sampled.TxnsPerStream, full.TxnsPerStream)
	}
}

// TestCellCacheFidelityKeying pins the acceptance rule that sampled
// results are keyed separately in the on-disk cell cache: an entry stored
// under one fidelity must never satisfy a lookup under the other.
func TestCellCacheFidelityKeying(t *testing.T) {
	cc, err := NewCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cell := phpCell("xeon", "default", workload.MediaWikiRW().Name, 8)
	full := Config{Scale: 32, Warmup: 1, Measure: 2, Seed: 1, Fidelity: FidelityFull}
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}
	sampled := full
	sampled.Fidelity = FidelitySampled

	cc.store(full, cell, CellResult{Cell: cell, TxnsPerStream: 2})
	if _, ok := cc.load(full, cell); !ok {
		t.Fatal("full entry should load for the full config")
	}
	if _, ok := cc.load(sampled, cell); ok {
		t.Fatal("sampled config must not be served a full-fidelity entry")
	}

	cc.store(sampled, cell, CellResult{Cell: cell, TxnsPerStream: 1})
	got, ok := cc.load(sampled, cell)
	if !ok {
		t.Fatal("sampled entry should load for the sampled config")
	}
	if got.TxnsPerStream != 1 {
		t.Fatalf("sampled load returned the wrong entry: %+v", got)
	}
	if got, _ := cc.load(full, cell); got.TxnsPerStream != 2 {
		t.Fatalf("full load returned the wrong entry: %+v", got)
	}
}

// TestFidelitySpellingsShareConfig pins that the explicit "full" spelling
// and the zero value are one configuration (Validate canonicalizes, so both
// share runners and cache keys).
func TestFidelitySpellingsShareConfig(t *testing.T) {
	a := Config{Scale: 32, Warmup: 1, Measure: 2, Seed: 1}
	b := a
	b.Fidelity = FidelityFull
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("Validate left %+v distinct from %+v", b, a)
	}
	c := a
	c.Fidelity = FidelityFull
	if NewRunner(c).Cfg.Fidelity != "" {
		t.Fatal("NewRunner should canonicalize explicit full fidelity to the zero value")
	}
}
