package memsys

import (
	"reflect"
	"testing"

	"webmm/internal/mem"
)

// record is one Recorder call.
type record struct {
	line uint64
	core int
	kind Kind
}

// sameBankStride is the line distance between consecutive rows of one bank
// under cfg's address map (defaults applied).
func sameBankStride(cfg DRAMConfig) uint64 {
	r := newRefDRAM(cfg, 1)
	return uint64(r.cfg.Channels) * r.linesPerRow * uint64(r.banksPerChannel)
}

// mixedStream draws n records from seed for the given core count: runs of
// sequential sweeps by one core (row hits), ping-pong between two rows of
// one bank (conflicts), and random lines from random cores.
func mixedStream(seed uint64, n, cores int, stride uint64) []record {
	g := lcg(seed)
	out := make([]record, 0, n)
	for len(out) < n {
		core := int(g.next() % uint64(cores))
		base := g.next() % (1 << 20)
		mode, run := g.next()%3, 1+int(g.next()%48)
		for i := 0; i < run && len(out) < n; i++ {
			line, c := base+uint64(i), core
			switch mode {
			case 1:
				line = base + uint64(i%2)*stride
			case 2:
				line, c = g.next()%(1<<18), int(g.next()%uint64(cores))
			}
			out = append(out, record{line, c, Kind(g.next() % 3)})
		}
	}
	return out
}

// checkReplay feeds stream to a DRAM and to the reference replay and
// requires identical Stats and per-core factors.
func checkReplay(t *testing.T, cfg DRAMConfig, cores int, stream []record) {
	t.Helper()
	d, err := NewDRAM(cfg, testLink(), cores)
	if err != nil {
		t.Fatalf("NewDRAM(%+v): %v", cfg, err)
	}
	ref := newRefDRAM(cfg, cores)
	rec := d.Recorder()
	for _, r := range stream {
		rec.Record(r.line, r.core, r.kind)
		ref.Record(r.line, r.core, r.kind)
	}
	want := ref.finish()
	if got := d.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v, %d cores, %d records: Stats diverged from the reference replay:\n got %+v\nwant %+v",
			cfg, cores, len(stream), got, want)
	}
	factors := make([]float64, cores)
	for c := range factors {
		factors[c] = d.CoreFactor(c)
	}
	if !reflect.DeepEqual(factors, want.CoreFactors) {
		t.Fatalf("%+v, %d cores: CoreFactor %v, reference %v", cfg, cores, factors, want.CoreFactors)
	}
	if d.CoreFactor(-1) != 1 || d.CoreFactor(cores) != 1 {
		t.Fatalf("%+v: out-of-range core factor not 1", cfg)
	}
}

// The slot-and-bitmask replay must serve the same requests in the same
// order as the comparator scan it replaced: every policy, windows from
// FCFS (1) to the bitmask width (64), 1 to 8 cores, on the default
// geometry and on a 2-bank one where rows collide constantly.
func TestDRAMReplayMatchesReference(t *testing.T) {
	geometries := []DRAMConfig{
		{},
		{Channels: 1, RanksPerChannel: 1, BanksPerRank: 2, RowBytes: 2 * mem.LineSize},
	}
	for _, p := range PolicyNames() {
		for _, w := range []int{1, 2, 7, 32, 64} {
			for _, geo := range geometries {
				cfg := geo
				cfg.Policy, cfg.Window = p, w
				stride := sameBankStride(cfg)
				for cores := 1; cores <= 8; cores++ {
					for seed := uint64(1); seed <= 2; seed++ {
						checkReplay(t, cfg, cores, mixedStream(seed*uint64(cores), 2500, cores, stride))
					}
				}
			}
		}
	}
}

// FuzzDRAMReplay decodes arbitrary bytes into a configuration and a miss
// stream and requires the replay to match the reference exactly. Four
// header bytes pick the policy, a small power-of-two geometry (1-2
// channels, 1-8 banks per channel, 1-8 lines per row), the window (1-64)
// and the core count (1-8); every following byte pair is one record, the
// first byte giving core (bits 0-2), kind (bits 3-4) and the line's top
// three bits, the second its low eight. 2048 lines over at most 16 banks
// keep windows filling and rows colliding.
func FuzzDRAMReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		policies := PolicyNames()
		cfg := DRAMConfig{
			Policy:          policies[int(data[0])%len(policies)],
			Channels:        1 << (data[1] & 1),
			RanksPerChannel: 1,
			BanksPerRank:    1 << (data[1] >> 1 & 3),
			RowBytes:        mem.LineSize << (data[1] >> 3 & 3),
			Window:          1 + int(data[2]%64),
		}
		cores := 1 + int(data[3]%8)
		stream := make([]record, 0, len(data)/2)
		for i := 4; i+1 < len(data); i += 2 {
			b := data[i]
			stream = append(stream, record{
				line: uint64(b>>5)<<8 | uint64(data[i+1]),
				core: int(b&7) % cores,
				kind: Kind(b>>3&3) % 3,
			})
		}
		checkReplay(t, cfg, cores, stream)
	})
}

var statsSink *Stats

// BenchmarkDRAMReplay prices the DRAM model alone: one deterministic
// 8-core mixed stream of 64Ki records, recorded through the Recorder seam
// into a fresh default-geometry model and finalized, per policy. ns/record
// is the model's whole cost per recorded miss, window replay included.
func BenchmarkDRAMReplay(b *testing.B) {
	const n = 1 << 16
	stream := mixedStream(1, n, 8, sameBankStride(DRAMConfig{}))
	for _, p := range PolicyNames() {
		b.Run(string(p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := NewDRAM(DRAMConfig{Policy: p}, testLink(), 8)
				if err != nil {
					b.Fatal(err)
				}
				rec := d.Recorder()
				for _, r := range stream {
					rec.Record(r.line, r.core, r.kind)
				}
				statsSink = d.Stats()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
		})
	}
}
