package experiments

import (
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

// renderFig1Table3 renders Figure 1 and Table 3 the way cmd/webmm does.
func renderFig1Table3(r *Runner) string {
	var b strings.Builder
	b.WriteString(Fig1(r).Table().String())
	b.WriteString("\n")
	b.WriteString(Table3Table(Table3(r)).String())
	b.WriteString("\n")
	return b.String()
}

// TestGoldenFig1Table3Deterministic is the determinism lock on rendered
// results: Figure 1 and Table 3 at the golden scale must reproduce the
// committed testdata byte-for-byte, from both the serial Run loop and the
// parallel RunAll fan-out. An intentional simulator change regenerates the
// file with -update (and, if cell numbers moved, bumps cellCacheVersion).
func TestGoldenFig1Table3Deterministic(t *testing.T) {
	path := filepath.Join("testdata", "golden_fig1_table3.txt")

	serial := NewRunner(goldenCfg())
	got := renderFig1Table3(serial)

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

	par := NewRunner(goldenCfg())
	par.RunAll(append(par.CellsFor("fig1"), par.CellsFor("table3")...), 4)
	if gotPar := renderFig1Table3(par); gotPar != string(want) {
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
