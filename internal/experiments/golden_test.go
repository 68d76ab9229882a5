package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webmm/internal/memsys"
	"webmm/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

// goldenCfg pins the configuration of the committed golden outputs. Any
// knob here is part of the golden contract: changing one requires
// regenerating testdata with -update.
func goldenCfg() Config {
	return Config{Scale: 256, Warmup: 1, Measure: 1, Seed: 20090615}
}

// renderFig1Table3 renders Figure 1 and Table 3 through the lookup, each
// table followed by a blank line.
func renderFig1Table3(l Lookup) string {
	var b strings.Builder
	b.WriteString(Fig1(l).Table().String())
	b.WriteString("\n")
	b.WriteString(Table3Table(Table3(l)).String())
	b.WriteString("\n")
	return b.String()
}

// TestGoldenFig1Table3Deterministic is the determinism lock on rendered
// results: Figure 1 and Table 3 at the golden scale must reproduce the
// committed testdata byte-for-byte, from both the serial Run loop and
// Runner.Experiments' parallel fan-out over their union plan. An
// intentional simulator change regenerates the file with -update (and, if
// cell numbers moved, bumps cellCacheVersion).
func TestGoldenFig1Table3Deterministic(t *testing.T) {
	path := filepath.Join("testdata", "golden_fig1_table3.txt")

	got := renderFig1Table3(direct(NewRunner(goldenCfg())))

	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("serial Fig1+Table3 output diverged from %s\ngot:\n%s", path, got)
	}

	outs, err := NewRunner(goldenCfg()).Experiments(context.Background(), []string{"fig1", "table3"}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, out := range outs {
		b.WriteString(out.Tables[0].String())
		b.WriteString("\n")
	}
	if gotPar := b.String(); gotPar != string(want) {
		t.Errorf("parallel Fig1+Table3 output diverged from %s\ngot:\n%s", path, gotPar)
	}
}

// TestCellFingerprint ties one cell's full CellResult — every counter, not
// just the rendered columns — to the cell-cache format version. The
// committed file records "v<cellCacheVersion> <sha256 of the result JSON>";
// if a change moves any number in the result, this fails until the author
// both bumps cellCacheVersion (so stale disk caches cannot serve the old
// numbers) and regenerates the fingerprint with -update.
func TestCellFingerprint(t *testing.T) {
	path := filepath.Join("testdata", "cell_fingerprint.txt")

	r := NewRunner(goldenCfg())
	res := r.Run(phpCell("xeon", "ddmalloc", workload.MediaWikiRO().Name, 2))
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	got := fmt.Sprintf("v%d %s\n", cellCacheVersion, hex.EncodeToString(sum[:]))

	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fingerprint file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("cell fingerprint mismatch:\n got %swant %s"+
			"(simulator outputs changed: bump cellCacheVersion and rerun with -update)",
			got, want)
	}
}

// TestDRAMFingerprint is TestCellFingerprint for the DRAM memory system:
// one 8-core MediaWiki(rw) memsched cell per registered scheduling policy,
// one "v<cellCacheVersion> <policy> <sha256 of the result JSON>" line
// each. The result carries the model's full Stats (row outcomes, queue
// depths, per-core factors), so any drift in how a policy orders a bank
// window fails here, not just in the rendered memsched table.
func TestDRAMFingerprint(t *testing.T) {
	path := filepath.Join("testdata", "dram_fingerprint.txt")

	r := NewRunner(goldenCfg())
	var b strings.Builder
	for _, p := range memsys.PolicyNames() {
		res := r.Run(memSchedCell("default", string(p), 8))
		if res.Failed || res.Res.Mem == nil {
			t.Fatalf("%s: cell failed or kept no DRAM stats: %+v", p, res)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(&b, "v%d %s %s\n", cellCacheVersion, p, hex.EncodeToString(sum[:]))
	}
	got := b.String()

	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fingerprint file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("DRAM cell fingerprints mismatch:\n got:\n%swant:\n%s"+
			"(simulator outputs changed: bump cellCacheVersion and rerun with -update)",
			got, want)
	}
}

// TestSampledFingerprint is TestCellFingerprint for -fidelity sampled. 33
// scheduled measure rounds cover three detail rounds, the two warming
// rounds before the second and third, and the skipped rounds between, so
// a change that moves any round of the fixed schedule moves a hash here.
// The cells span both platforms, a restarting Ruby cell and a DRAM cell;
// each line is "v<cellCacheVersion> <cell key> <sha256 of the result
// JSON>".
func TestSampledFingerprint(t *testing.T) {
	path := filepath.Join("testdata", "sampled_fingerprint.txt")

	cfg := Config{Scale: 256, Warmup: 1, Measure: 33, Seed: 20090615, Fidelity: FidelitySampled}
	r := NewRunner(cfg)
	cells := []struct {
		cell Cell
		txns uint64 // three detail rounds of every stream
	}{
		{phpCell("xeon", "ddmalloc", workload.MediaWikiRO().Name, 2), 6},
		{phpCell("niagara", "region", workload.MediaWikiRW().Name, 8), 96},
		{rubyCell("glibc", cfg.rubyRestart(100)), 24},
		{memSchedCell("default", string(memsys.PolicyATLAS), 4), 12},
	}
	var b strings.Builder
	for _, tc := range cells {
		res := r.Run(tc.cell)
		if res.Failed {
			t.Fatalf("%s failed", tc.cell.Key())
		}
		if res.Res.Txns != tc.txns {
			t.Errorf("%s measured %d transactions, want %d", tc.cell.Key(), res.Res.Txns, tc.txns)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(&b, "v%d %s %s\n", cellCacheVersion, tc.cell.Key(), hex.EncodeToString(sum[:]))
	}
	got := b.String()

	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fingerprint file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("sampled cell fingerprints mismatch:\n got:\n%swant:\n%s"+
			"(simulator outputs changed: bump cellCacheVersion and rerun with -update)",
			got, want)
	}
}
