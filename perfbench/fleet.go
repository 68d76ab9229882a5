package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webmm/internal/experiments"
	"webmm/internal/server"
	"webmm/internal/workload"
)

// The serve_fleet workload is the fleet-smoke topology in one process:
// worker A owns an on-disk cell cache and serves it at /cache, worker B and
// the coordinator use it as their remote cache, and fleetClients
// closed-loop clients send single-cell requests to the coordinator.
const (
	fleetWorkers = 2
	fleetClients = 2
	// workerJobs is each worker's simulation job count. The coordinator
	// sends a cell to the worker its key hashes to, so with one job per
	// worker two clients' cells that hash alike would wait for each other
	// while the other worker idled, as often as the request order made
	// them meet; with one job per client no request waits for a slot.
	workerJobs = fleetClients
	fleetScale = 512
	// warmRequests is the length of each round's warm script.
	warmRequests = 6000
	// setupPerFleetRound is how many extra times a round starts and stops
	// the three instances; setup_s is the median of every start in a run.
	setupPerFleetRound = 4
)

func fleetConfig(seed uint64) experiments.Config {
	return experiments.Config{Scale: fleetScale, Warmup: 1, Measure: 1, Seed: simSeed(seed)}
}

// fleetCells are the requested cells: every PHP app × allocator × platform
// at 1, 2, 4 and 8 cores.
func fleetCells() []experiments.Cell {
	var out []experiments.Cell
	for _, p := range workload.Profiles() {
		for _, alloc := range experiments.PHPAllocators() {
			for _, plat := range []string{"xeon", "niagara"} {
				for _, cores := range []int{1, 2, 4, 8} {
					out = append(out, experiments.Cell{Platform: plat, Alloc: alloc, Workload: p.Name, Cores: cores})
				}
			}
		}
	}
	return out
}

// instance is one in-process webmm server on a loopback port.
type instance struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

// startInstance starts a server and waits until it answers /healthz.
// wrap, when non-nil, wraps the server's handler (the traced run's
// middleware).
func startInstance(cfg server.Config, wrap func(http.Handler) http.Handler, hc *http.Client) (*instance, error) {
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	in := &instance{
		srv:  s,
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { in.done <- in.hs.Serve(ln) }()
	resp, err := hc.Get(in.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		in.stop()
		return nil, err
	}
	return in, nil
}

// stop shuts the HTTP server down, waits for its serve loop, and drains
// the worker pool.
func (in *instance) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := in.hs.Shutdown(ctx); err != nil {
		_ = in.hs.Close()
	}
	<-in.done
	in.srv.Close()
}

// counters scrapes the instance's /metrics and sums the named counters
// over all their label sets.
func (in *instance) counters(hc *http.Client, names ...string) (map[string]float64, error) {
	resp, err := hc.Get(in.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		for _, n := range names {
			if rest, ok := strings.CutPrefix(line, n); ok && rest != "" && (rest[0] == ' ' || rest[0] == '{') {
				v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
				if err != nil {
					return nil, fmt.Errorf("metrics line %q: %w", line, err)
				}
				out[n] += v
			}
		}
	}
	return out, sc.Err()
}

// fleetTopo is one started fleet.
type fleetTopo struct {
	a, b, coord *instance
	cfg         experiments.Config
	tr          *fleetTrace
}

func startFleet(cfg experiments.Config, dir string, tr *fleetTrace, hc *http.Client) (*fleetTopo, error) {
	disk, err := experiments.NewDiskBackend(dir)
	if err != nil {
		return nil, err
	}
	f := &fleetTopo{cfg: cfg, tr: tr}
	if f.a, err = startInstance(server.Config{Jobs: workerJobs, Sim: cfg, Cache: tr.cache(disk)}, tr.middleware(), hc); err != nil {
		return nil, err
	}
	if f.b, err = startInstance(server.Config{Jobs: workerJobs, Sim: cfg, Cache: tr.cache(experiments.NewHTTPBackend(f.a.url))}, tr.middleware(), hc); err != nil {
		f.a.stop()
		return nil, err
	}
	if err = f.startCoordinator(hc); err != nil {
		f.b.stop()
		f.a.stop()
		return nil, err
	}
	return f, nil
}

// startCoordinator starts a fresh coordinator over the fleet's workers.
// Hedging is off: on a small host a hedge is a duplicate simulation whose
// firing depends on timing.
func (f *fleetTopo) startCoordinator(hc *http.Client) error {
	var err error
	f.coord, err = startInstance(server.Config{
		Jobs: fleetClients, Sim: f.cfg, HedgeAfter: -1,
		Cache:   f.tr.cache(experiments.NewHTTPBackend(f.a.url)),
		Workers: []string{f.a.url, f.b.url},
	}, nil, hc)
	return err
}

func (f *fleetTopo) stop() {
	f.coord.stop()
	f.b.stop()
	f.a.stop()
}

// reqResult is one request's outcome; the stage offsets are from the POST.
type reqResult struct {
	client                  int
	start                   time.Time
	queued, running, result time.Duration
	err                     error
}

// loadClient is one closed-loop connection: one http.Client and one read
// buffer for all its requests.
type loadClient struct {
	hc *http.Client
	br *bufio.Reader
	ev struct {
		Event  string          `json:"event"`
		Failed bool            `json:"failed"`
		Result json.RawMessage `json:"result"`
	}
}

func newLoadClient() *loadClient {
	return &loadClient{
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		br: bufio.NewReaderSize(nil, 64<<10),
	}
}

// do posts one request and reads its NDJSON stream to the end. The
// returned result bytes alias the client's buffer until its next request.
func (c *loadClient) do(url string, body []byte) (reqResult, []byte) {
	r := reqResult{start: time.Now()}
	resp, err := c.hc.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		r.err = fmt.Errorf("HTTP %d", resp.StatusCode)
		return r, nil
	}
	c.br.Reset(resp.Body)
	var result []byte
	for {
		line, rerr := c.br.ReadSlice('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			at := time.Since(r.start)
			c.ev.Event, c.ev.Failed, c.ev.Result = "", false, c.ev.Result[:0]
			if err := json.Unmarshal(line, &c.ev); err != nil {
				r.err = fmt.Errorf("bad event line: %w", err)
				return r, nil
			}
			switch c.ev.Event {
			case "queued":
				r.queued = at
			case "running":
				r.running = at
			case "result":
				r.result = at
				if c.ev.Failed {
					r.err = errors.New("result event reports the cell failed")
					return r, nil
				}
				result = c.ev.Result
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			r.err = rerr
			return r, nil
		}
	}
	if result == nil {
		r.err = errors.New("stream ended without a result event")
	}
	return r, result
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// runPhase sends the script's requests from the closed-loop clients and
// returns each request's outcome, in script order, and the phase's wall
// time. check judges each result while its bytes are still valid.
func runPhase(url string, script []int, bodies [][]byte, clients []*loadClient, check func(cell int, result []byte) error) ([]reqResult, float64) {
	out := make([]reqResult, len(script))
	var next atomic.Int64
	var wg sync.WaitGroup
	wall := timed(func() {
		for ci, c := range clients {
			wg.Add(1)
			go func(ci int, c *loadClient) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(script) {
						return
					}
					r, result := c.do(url, bodies[script[i]])
					if r.err == nil {
						r.err = check(script[i], result)
					}
					r.client = ci
					out[i] = r
				}
			}(ci, c)
		}
		wg.Wait()
	})
	return out, wall
}

// runFleet measures the serve_fleet workload: rounds of a cold phase (each
// cell requested once, simulated on a worker, stored in the shared cache)
// and a warm phase (a seeded script of repeats against a freshly started
// coordinator: shared-cache hits, then memo hits). The seed draws the cold
// order and the warm script once; every round replays both.
func runFleet(o options) (*report, error) {
	cfg := fleetConfig(o.seed)
	cells := fleetCells()
	bodies := make([][]byte, len(cells))
	keys := make([]string, len(cells))
	for i, c := range cells {
		b, err := json.Marshal(map[string]any{"cell": c})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
		keys[i] = c.Key()
	}
	rng := rand.New(rand.NewSource(int64(o.seed)))
	coldScript := rng.Perm(len(cells))
	warmScript := make([]int, warmRequests)
	for i := range warmScript {
		warmScript[i] = rng.Intn(len(cells))
	}

	rep := newReport()
	ck := newCellChecker("serve_fleet", o.seed)
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	clients := make([]*loadClient, fleetClients)
	for i := range clients {
		clients[i] = newLoadClient()
		defer clients[i].close()
	}

	var (
		setup, walls, cpus, coldRate, warmRate, warmLat []float64
		allocMB, gcs, tracedWall, untracedWall          []float64
		cold, warm                                      []reqResult
		coldCell                                        = cellTimes{}
		ctr                                             = map[string][]float64{}
		tr                                              *fleetTrace
		sp                                              = &spans{}
	)
	if o.trace {
		tr = &fleetTrace{caches: &timedCache{}}
	}
	counters := []string{"webmm_memo_hits_total", "webmm_fleet_dispatch_total", "webmm_server_rejected_total"}
	start := time.Now()
	for round := 0; more(start, round, minRounds, o.budget); round++ {
		// A traced run alternates untraced and traced rounds, so the
		// tracing overhead is measured in the same window.
		rtr := tr
		if o.trace && round%2 == 0 {
			rtr = nil
		}
		dir := filepath.Join(o.dir, fmt.Sprintf("fleet-cache-%d", round))
		var f *fleetTopo
		var err error
		for i := 0; i <= setupPerFleetRound; i++ {
			if f != nil {
				f.stop()
				removeAll(dir)
			}
			setup = append(setup, timed(func() { f, err = startFleet(cfg, dir, rtr, hc) }))
			if err != nil {
				return nil, fmt.Errorf("start fleet: %w", err)
			}
		}
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		if o.trace {
			runtime.ReadMemStats(&ms0)
		}
		c0 := cpuSeconds()

		// Cold phase: every cell once. The results are the references the
		// warm phase must reproduce.
		tr.setPhase(coldPhase)
		coldRaw := make([][]byte, len(cells))
		res, coldWall := runPhase(f.coord.url, coldScript, bodies, clients, func(cell int, result []byte) error {
			coldRaw[cell] = append([]byte(nil), result...)
			return nil
		})
		coldCPU := cpuSeconds() - c0
		for i, r := range res {
			rep.check(r.err == nil, "cold request %d: %v", i, r.err)
		}
		for i, raw := range coldRaw {
			var cr experiments.CellResult
			if raw != nil && json.Unmarshal(raw, &cr) == nil && cr.Cell == cells[i] {
				ck.check(rep, "cold", cr)
			} else {
				rep.check(false, "cold cell %s: no usable result", keys[i])
			}
		}
		counts, err := f.coord.counters(hc, counters...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.coord.stop()
		if err := f.startCoordinator(hc); err != nil {
			f.b.stop()
			f.a.stop()
			return nil, fmt.Errorf("restart coordinator: %w", err)
		}

		// Warm phase: the seeded script of repeats, from a collected heap
		// as the cold phase.
		tr.setPhase(warmPhase)
		runtime.GC()
		c1 := cpuSeconds()
		wres, warmWall := runPhase(f.coord.url, warmScript, bodies, clients, func(cell int, result []byte) error {
			if !bytes.Equal(result, coldRaw[cell]) {
				return fmt.Errorf("cell %s: warm result differs from the cold one", keys[cell])
			}
			return nil
		})
		cpuRound := coldCPU + cpuSeconds() - c1
		for i, r := range wres {
			rep.check(r.err == nil, "warm request %d: %v", i, r.err)
		}
		for _, in := range []*instance{f.coord, f.a, f.b} {
			c, err := in.counters(hc, counters...)
			if err != nil {
				f.stop()
				return nil, err
			}
			for k, v := range c {
				counts[k] += v
			}
		}
		f.stop()
		removeAll(dir)
		rep.check(counts["webmm_server_rejected_total"] == 0, "round %d: %v requests rejected", round, counts["webmm_server_rejected_total"])

		if o.trace {
			runtime.ReadMemStats(&ms1)
			if rtr == nil {
				untracedWall = append(untracedWall, coldWall+warmWall)
				continue
			}
			tracedWall = append(tracedWall, coldWall+warmWall)
			allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
			gcs = append(gcs, float64(ms1.NumGC-ms0.NumGC))
			for _, k := range counters {
				ctr[k] = append(ctr[k], counts[k])
			}
			sp.addRequests("cold", res, coldScript, keys)
			sp.addRequests("warm", wres, warmScript, keys)
			cold = append(cold, res...)
			warm = append(warm, wres...)
			continue
		}
		walls = append(walls, coldWall+warmWall)
		cpus = append(cpus, cpuRound)
		coldRate = append(coldRate, float64(len(cells))/coldWall)
		warmRate = append(warmRate, float64(len(warmScript))/warmWall)
		warmLat = append(warmLat, latencies(wres)...)
		pass := map[string]float64{}
		for i, r := range res {
			if r.err == nil {
				pass[keys[coldScript[i]]] = ms(r.result)
			}
		}
		coldCell.add(pass)
	}

	if o.trace {
		tr.report(rep, cold, warm, len(tracedWall), ctr)
		setHost(rep, allocMB, gcs)
		rep.set("trace.overhead_pct", 100*(median(tracedWall)/median(untracedWall)-1))
		return rep, sp.write(filepath.Join(".bench_build", "traces", fmt.Sprintf("serve_fleet-seed%d.json", o.seed)))
	}
	rep.set("setup_s", median(setup))
	rep.set("wall_s", median(walls))
	rep.set("cpu_s", median(cpus))
	rep.set("peak_rss_mb", peakRSSMB())
	rep.set("cold_cells_per_s", median(coldRate))
	rep.set("cold_p50_ms", coldCell.quantile(0.5))
	rep.set("cold_p90_ms", coldCell.quantile(0.9))
	rep.set("warm_req_per_s", median(warmRate))
	rep.set("warm_p50_ms", quantile(warmLat, 0.5))
	rep.set("warm_p90_ms", quantile(warmLat, 0.9))
	return rep, nil
}

// latencies are the POST→result times of the successful requests, in ms.
func latencies(rs []reqResult) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if r.err == nil {
			out = append(out, ms(r.result))
		}
	}
	return out
}
