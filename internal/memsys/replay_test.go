package memsys

import (
	"reflect"
	"slices"
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

// solved returns a model's Stats and its CoreFactor for every core.
func solved(d *DRAM) (*Stats, []float64) {
	factors := make([]float64, d.nCores)
	for c := range factors {
		factors[c] = d.CoreFactor(c)
	}
	return d.Stats(), factors
}

// alone feeds stream to a lone DRAM and to the reference replay and
// returns the model and the reference's Stats.
func alone(t *testing.T, cfg DRAMConfig, cores int, stream []record) (*DRAM, *Stats) {
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
	return d, ref.finish()
}

// checkReplay feeds stream to a DRAM and to the reference replay and
// requires identical Stats and per-core factors.
func checkReplay(t *testing.T, cfg DRAMConfig, cores int, stream []record) {
	t.Helper()
	d, want := alone(t, cfg, cores, stream)
	if got := d.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v, %d cores, %d records: Stats diverged from the reference replay:\n got %+v\nwant %+v",
			cfg, cores, len(stream), got, want)
	}
	if _, factors := solved(d); !reflect.DeepEqual(factors, want.CoreFactors) {
		t.Fatalf("%+v, %d cores: CoreFactor %v, reference %v", cfg, cores, factors, want.CoreFactors)
	}
	if d.CoreFactor(-1) != 1 || d.CoreFactor(cores) != 1 {
		t.Fatalf("%+v: out-of-range core factor not 1", cfg)
	}
}

// sweep builds one DRAM model per policy, plus a second model of the first
// policy, all on cfg's geometry with cores cores, and the models list FanOut
// takes: the DRAM models with the bus between them.
func sweep(t *testing.T, cfg DRAMConfig, cores int) ([]*DRAM, []Model) {
	t.Helper()
	var drams []*DRAM
	var models []Model
	policies := PolicyNames()
	for i, p := range append(policies, policies[0]) {
		c := cfg
		c.Policy = p
		d, err := NewDRAM(c, testLink(), cores)
		if err != nil {
			t.Fatalf("NewDRAM(%+v): %v", c, err)
		}
		if i == 2 {
			models = append(models, NewBus(testLink()))
		}
		drams, models = append(drams, d), append(models, d)
	}
	return drams, models
}

// checkGroup feeds stream once through a FanOut of one DRAM model per
// policy, a duplicate policy and the bus, and requires every DRAM member
// to match both its lone model and the reference replay. The members are
// solved first to last, or last to first when reverse is set, so which
// member flushes the shared store's partial windows cannot matter.
func checkGroup(t *testing.T, cfg DRAMConfig, cores int, stream []record, reverse bool) {
	t.Helper()
	drams, models := sweep(t, cfg, cores)
	rec := FanOut(models, cores)
	if rec != drams[0].st {
		t.Fatalf("%+v, %d cores: FanOut returned %T, want the members' one shared store", cfg, cores, rec)
	}
	for _, x := range stream {
		rec.Record(x.line, x.core, x.kind)
	}
	if reverse {
		slices.Reverse(drams)
	}
	for _, d := range drams {
		got, factors := solved(d)
		loneModel, ref := alone(t, d.cfg, cores, stream)
		lone, loneFactors := solved(loneModel)
		if !reflect.DeepEqual(got, lone) || !reflect.DeepEqual(factors, loneFactors) {
			t.Fatalf("%+v, %d cores, %d records, reverse %v: grouped %s diverged from its lone model:\n got %+v %v\nwant %+v %v",
				cfg, cores, len(stream), reverse, d.Name(), got, factors, lone, loneFactors)
		}
		if !reflect.DeepEqual(got, ref) || !reflect.DeepEqual(factors, ref.CoreFactors) {
			t.Fatalf("%+v, %d cores, %d records, reverse %v: grouped %s diverged from the reference replay:\n got %+v\nwant %+v",
				cfg, cores, len(stream), reverse, d.Name(), got, ref)
		}
	}
}

// The slot-and-bitmask replay must serve the same requests in the same
// order as the comparator scan it replaced: every policy, windows from
// FCFS (1) to the bitmask width (64), 1 to 8 cores, on the default
// geometry and on a 2-bank one where rows collide constantly.
func TestDRAMReplayMatchesReference(t *testing.T) {
	for _, p := range PolicyNames() {
		for _, w := range []int{1, 2, 7, 32, 64} {
			for _, geo := range dramGeometries {
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

// dramGeometries are the two geometries the replay tests sweep: the
// default and a 2-bank one where rows collide constantly.
var dramGeometries = []DRAMConfig{
	{},
	{Channels: 1, RanksPerChannel: 1, BanksPerRank: 2, RowBytes: 2 * mem.LineSize},
}

// Models of one geometry share a window store behind FanOut, and each
// member's results must be exactly its lone model's and the reference
// replay's, whichever member is solved first.
func TestFanOutSharedStoreMatchesAlone(t *testing.T) {
	for _, w := range []int{1, 2, 7, 32, 64} {
		for _, geo := range dramGeometries {
			cfg := geo
			cfg.Window = w
			stride := sameBankStride(cfg)
			for cores := 1; cores <= 8; cores++ {
				for seed := uint64(1); seed <= 2; seed++ {
					stream := mixedStream(seed*uint64(cores), 2500, cores, stride)
					checkGroup(t, cfg, cores, stream, false)
					checkGroup(t, cfg, cores, stream, true)
				}
			}
		}
	}
}

// Models that differ in geometry, window or core count cannot share
// windows: FanOut groups only the ones that agree and records into every
// other store separately, and each model still matches its lone run.
func TestFanOutSeparatesGeometries(t *testing.T) {
	const cores = 4
	cfgs := []struct {
		cfg   DRAMConfig
		cores int
	}{
		{DRAMConfig{Policy: PolicyFRFCFS}, cores},
		{DRAMConfig{Policy: PolicyTCM}, 2 * cores}, // core count
		{DRAMConfig{Policy: PolicyATLAS, Channels: 1, RanksPerChannel: 1, BanksPerRank: 2, RowBytes: 2 * mem.LineSize}, cores},
		{DRAMConfig{Policy: PolicyBLISS, Window: 7}, cores},
		{DRAMConfig{Policy: PolicyATLAS, RowBytes: 4 << 10}, cores},
		{DRAMConfig{Policy: PolicyBLISS}, cores}, // the first model's sibling
	}
	var drams []*DRAM
	var models []Model
	for _, c := range cfgs {
		d, err := NewDRAM(c.cfg, testLink(), c.cores)
		if err != nil {
			t.Fatal(err)
		}
		drams, models = append(drams, d), append(models, d)
	}
	rec := FanOut(models, cores)
	if f, ok := rec.(fanOut); !ok || len(f) != len(cfgs)-1 {
		t.Fatalf("FanOut returned %#v, want %d separate stores", rec, len(cfgs)-1)
	}
	if drams[5].st != drams[0].st {
		t.Fatal("the two default-geometry 4-core models do not share a store")
	}
	stream := mixedStream(9, 6000, cores, sameBankStride(DRAMConfig{}))
	for _, x := range stream {
		rec.Record(x.line, x.core, x.kind)
	}
	for i, d := range drams {
		got, factors := solved(d)
		loneModel, ref := alone(t, d.cfg, cfgs[i].cores, stream)
		lone, loneFactors := solved(loneModel)
		if !reflect.DeepEqual(got, lone) || !reflect.DeepEqual(factors, loneFactors) || !reflect.DeepEqual(got, ref) {
			t.Fatalf("%+v, %d cores: diverged from its lone model:\n got %+v\nlone %+v\n ref %+v", d.cfg, cfgs[i].cores, got, lone, ref)
		}
	}
}

// A DRAM model narrower than the recording machine gets only the records
// of its own cores, in pricing order: every member of a FanOut over an
// 8-core stream, with 2-, 4- and 8-core siblings side by side, matches its
// lone model and the reference replay fed its own cores' records alone. A
// lone narrower model is fed through the same filter; a lone model of the
// machine's width is its own recorder.
func TestFanOutGivesEachModelItsCores(t *testing.T) {
	const cores = 8
	stream := mixedStream(5, 6000, cores, sameBankStride(DRAMConfig{}))
	var drams []*DRAM
	var models []Model
	for _, n := range []int{4, 2, 8} {
		ds, ms := sweep(t, DRAMConfig{}, n)
		drams, models = append(drams, ds...), append(models, ms...)
	}
	narrow, err := NewDRAM(DRAMConfig{Policy: PolicyTCM}, testLink(), 4)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewDRAM(DRAMConfig{Policy: PolicyTCM}, testLink(), cores)
	if err != nil {
		t.Fatal(err)
	}
	if rec := FanOut([]Model{full}, cores); rec != full.st {
		t.Fatalf("a lone %d-core model on a %d-core machine is fed through %T, want its own store", cores, cores, rec)
	}
	for _, rec := range []Recorder{FanOut(models, cores), FanOut([]Model{narrow}, cores)} {
		for _, x := range stream {
			rec.Record(x.line, x.core, x.kind)
		}
	}
	for _, d := range append(drams, narrow) {
		var own []record
		for _, x := range stream {
			if x.core < d.nCores {
				own = append(own, x)
			}
		}
		got, factors := solved(d)
		loneModel, ref := alone(t, d.cfg, d.nCores, own)
		lone, loneFactors := solved(loneModel)
		if !reflect.DeepEqual(got, lone) || !reflect.DeepEqual(factors, loneFactors) || !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s, %d of %d cores: diverged from its lone model fed its own cores:\n got %+v\nlone %+v\n ref %+v",
				d.Name(), d.nCores, cores, got, lone, ref)
		}
	}
}

// Once any member has answered a solver query the store has flushed its
// partial windows, so recording through the group, or into any member,
// must panic rather than skew the frozen factors.
func TestFanOutRecordAfterSolvePanics(t *testing.T) {
	for k := range PolicyNames() {
		drams, models := sweep(t, DRAMConfig{}, 2)
		rec := FanOut(models, 2)
		for i := range 100 {
			rec.Record(uint64(i*7), i%2, Read)
		}
		drams[k].LatencyMultiplier(0.5)
		for _, r := range []Recorder{rec, drams[(k+1)%len(drams)]} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Record via %T after %s's first solver query did not panic", r, drams[k].Name())
					}
				}()
				r.Record(1, 0, Read)
			}()
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
// keep windows filling and rows colliding. Every input also runs through a
// FanOut group of all four policies on the same geometry, solved last to
// first when bit 2 of the first byte is set.
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
		checkGroup(t, cfg, cores, stream, data[0]&4 != 0)
	})
}

var statsSink *Stats

// BenchmarkDRAMReplay prices the DRAM model alone: one deterministic
// 8-core mixed stream of 64Ki records, recorded through the Recorder seam
// into fresh default-geometry models and finalized. Each policy's case is
// one lone model; the group case records the stream once through a FanOut
// of all four policies, as a memsched sibling group does. ns/record is the
// models' whole cost per recorded miss, window replay included.
func BenchmarkDRAMReplay(b *testing.B) {
	const n = 1 << 16
	stream := mixedStream(1, n, 8, sameBankStride(DRAMConfig{}))
	for _, name := range append(PolicyNames(), "group") {
		policies := []PolicyName{name}
		if name == "group" {
			policies = PolicyNames()
		}
		b.Run(string(name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				models := make([]Model, len(policies))
				for j, p := range policies {
					d, err := NewDRAM(DRAMConfig{Policy: p}, testLink(), 8)
					if err != nil {
						b.Fatal(err)
					}
					models[j] = d
				}
				rec := FanOut(models, 8)
				for _, r := range stream {
					rec.Record(r.line, r.core, r.kind)
				}
				for _, m := range models {
					statsSink = m.Stats()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
		})
	}
}
