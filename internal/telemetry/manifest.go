package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// ManifestFormatVersion identifies the manifest JSON schema. Bump when a
// field changes meaning or is removed; adding fields is compatible.
const ManifestFormatVersion = 1

// Manifest is the machine-readable record of one run: what was simulated,
// with which configuration, how long each cell took, how the cache behaved,
// and what failed. It is written alongside the results so a run is
// reproducible and auditable from its outputs alone.
type Manifest struct {
	Tool          string `json:"tool"`
	FormatVersion int    `json:"format_version"`
	// SimVersion is the simulator's cell-format version (the cell cache's
	// invalidation key); two manifests with equal SimVersion, Config and
	// Seed describe bit-identical simulations.
	SimVersion int    `json:"simulator_version"`
	GoVersion  string `json:"go_version,omitempty"`

	StartedAt   string  `json:"started_at,omitempty"`  // RFC 3339
	FinishedAt  string  `json:"finished_at,omitempty"` // RFC 3339
	WallSeconds float64 `json:"wall_seconds,omitempty"`

	Config      ManifestConfig `json:"config"`
	Experiments []string       `json:"experiments"`
	Cells       []ManifestCell `json:"cells"`

	// Disk cell-cache accounting (zero when no cache was configured) and
	// in-process memoization hits.
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	MemoHits      uint64  `json:"memo_hits"`

	Failures []ManifestFailure `json:"failures,omitempty"`
}

// ManifestConfig records the run's knobs: the simulation configuration plus
// the CLI-level execution parameters.
type ManifestConfig struct {
	Scale          int    `json:"scale"`
	Warmup         int    `json:"warmup"`
	Measure        int    `json:"measure"`
	Seed           uint64 `json:"seed"`
	XeonLargePages bool   `json:"xeon_large_pages,omitempty"`
	// Fidelity is empty for full fidelity, "sampled" for SMARTS-style
	// sampled measurement; omitempty keeps full-fidelity manifests
	// byte-identical to builds that predate the mode.
	Fidelity     string `json:"fidelity,omitempty"`
	Jobs         int    `json:"jobs,omitempty"`
	Faults       string `json:"faults,omitempty"`
	Timeout      string `json:"timeout,omitempty"`
	CellCacheDir string `json:"cell_cache_dir,omitempty"`
}

// ManifestCell is one simulated cell's record.
type ManifestCell struct {
	Platform     string `json:"platform"`
	Alloc        string `json:"alloc"`
	Workload     string `json:"workload"`
	Cores        int    `json:"cores"`
	Ruby         bool   `json:"ruby,omitempty"`
	RestartEvery int    `json:"restart_every,omitempty"`
	Budget       uint64 `json:"budget,omitempty"`   // static per-stream byte cap
	MemSched     string `json:"memsched,omitempty"` // DRAM scheduling policy; empty is the bus
	// WallMS is volatile. A from-cache cell reports its load time, and a
	// cell that shared its pricing pass its share of the pass's time.
	WallMS float64 `json:"wall_ms,omitempty"`
	Cached bool    `json:"cached,omitempty"` // served from the disk cell cache
	// Shared is the number of cells one pricing pass simulated together
	// with this one, itself included; absent for a cell simulated alone.
	Shared     int     `json:"shared,omitempty"`
	Failed     bool    `json:"failed,omitempty"`
	Throughput float64 `json:"throughput,omitempty"`
	Txns       uint64  `json:"txns,omitempty"`
}

// ManifestFailure is one failed cell's report.
type ManifestFailure struct {
	Cell     string `json:"cell"`
	Error    string `json:"error"`
	Attempts int    `json:"attempts"`
}

// Stamp fills the volatile wall-clock fields from start to now.
func (m *Manifest) Stamp(start time.Time) {
	now := time.Now()
	m.StartedAt = start.UTC().Format(time.RFC3339Nano)
	m.FinishedAt = now.UTC().Format(time.RFC3339Nano)
	m.WallSeconds = now.Sub(start).Seconds()
}

// Canonical returns a copy with every volatile field (wall-clock times and
// durations, toolchain version) zeroed, leaving only the deterministic
// content. Two runs of the same configuration and simulator version produce
// byte-identical canonical manifests — the property the golden manifest test
// locks in.
func (m Manifest) Canonical() Manifest {
	m.GoVersion = ""
	m.StartedAt = ""
	m.FinishedAt = ""
	m.WallSeconds = 0
	cells := make([]ManifestCell, len(m.Cells))
	copy(cells, m.Cells)
	for i := range cells {
		cells[i].WallMS = 0
	}
	m.Cells = cells
	return m
}

// MarshalIndent renders the manifest as indented JSON.
func (m *Manifest) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// WriteFile writes the manifest as indented JSON to path.
func (m *Manifest) WriteFile(path string) error {
	data, err := m.MarshalIndent()
	if err != nil {
		return fmt.Errorf("telemetry: marshal manifest: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
