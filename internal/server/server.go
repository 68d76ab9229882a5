// Package server runs webmm as a long-lived HTTP experiment service. The
// paper's subject is servers that stay up under heavy concurrent
// transaction load; this package puts the reproduction itself in that
// shape: requests queue cells or whole experiments onto a bounded worker
// pool, every request shares one on-disk cell cache and one telemetry
// registry, progress streams back per cell, and SIGTERM drains in-flight
// work instead of dropping it.
//
// The service only works because cell cancellation is cooperative
// (Runner.RunContext → Machine.RunContext → sim.Checkpoint): a client that
// disconnects, a per-request timeout, or shutdown past the drain budget
// stops the simulation on its own goroutine. Nothing is abandoned, so a
// server that has served a million requests holds exactly its worker-pool
// goroutines.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webmm/internal/budget"
	"webmm/internal/experiments"
	"webmm/internal/telemetry"
	"webmm/internal/workload"
)

// Config configures a Server. The zero value is usable: it listens on a
// random localhost port with GOMAXPROCS workers, a 2×workers queue, the
// default simulation configuration, and no cell cache.
type Config struct {
	// Addr is the listen address for ListenAndServe ("host:port";
	// ":0" picks a free port). Default "127.0.0.1:0".
	Addr string
	// Jobs is the number of worker goroutines executing requests.
	// Default GOMAXPROCS.
	Jobs int
	// QueueDepth bounds admissions beyond the running jobs; a request
	// arriving with the queue full is rejected with 429 + Retry-After.
	// Default 2×Jobs.
	QueueDepth int
	// Sim is the default simulation configuration; requests may override
	// scale/warmup/measure/seed per call. Zero fields are filled from
	// experiments.DefaultConfig.
	Sim experiments.Config
	// CacheDir, when non-empty, is the on-disk cell cache shared by every
	// runner the server creates: a cell simulated for one request (or by
	// a previous process) is served from disk for the next.
	CacheDir string
	// Cache, when non-nil, overrides CacheDir with an explicit cache
	// backend — typically experiments.NewHTTPBackend pointed at another
	// instance's /cache route, so a whole fleet shares one
	// content-addressed result store. Whichever backend ends up active is
	// also served back out on this instance's own /cache route.
	Cache experiments.CacheBackend
	// Workers, when non-empty, puts the server in coordinator mode: POST
	// /run plans work as every instance does but executes every cell
	// remotely on these worker base URLs (fanning experiments out in
	// parallel), with failover and hedged retries. The workers are plain
	// webmm serve instances; every dispatch carries the coordinator's
	// config and every result echoes the worker's, so a worker's own
	// defaults never decide a cell.
	Workers []string
	// HedgeAfter is the multiple of the observed p50 cell wall time after
	// which a dispatched cell is hedged onto a second shard (coordinator
	// mode). 0 means the default (4); negative disables hedging.
	HedgeAfter float64
	// CellTimeout bounds each cell attempt's wall time (0 = unbounded).
	// Requests may tighten it per call, never widen it.
	CellTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: when it expires, in-flight
	// requests are cancelled (cooperatively) instead of drained. Default
	// 60s.
	DrainTimeout time.Duration
	// ReadHeaderTimeout bounds how long one connection may take to send
	// its request headers; a slowloris client is cut off instead of
	// pinning a connection through drain forever. Default 10s.
	ReadHeaderTimeout time.Duration
	// IdleTimeout closes keep-alive connections that sit idle. Default
	// 120s.
	IdleTimeout time.Duration
	// EventWriteTimeout bounds each NDJSON progress write. A client that
	// stops reading (without disconnecting) trips it; the connection is
	// abandoned and the request's cell cancelled, so a stalled reader
	// cannot pin a worker slot. Default 30s.
	EventWriteTimeout time.Duration
	// Tel is the telemetry session backing /metrics. nil means a live
	// in-memory session (telemetry.NewLive).
	Tel *telemetry.Telemetry
	// GlobalBudget, when > 0, caps the total bytes the server's concurrent
	// cells may hold mapped. A MemBalancer-style controller apportions it
	// across running cells by allocation rate (see internal/budget) and the
	// admission path degrades gracefully as utilization climbs: new work is
	// forced to sampled fidelity, then queued with a computed Retry-After,
	// then shed with 429. 0 means unlimited (no controller).
	GlobalBudget uint64
	// Pressure tunes the controller's thresholds and cadence; zero fields
	// take the budget.Policy defaults. Ignored without GlobalBudget.
	Pressure budget.Policy
}

// runnerKey identifies one shared Runner. Runners memoize per fixed
// (Config, faults, timeout), so requests agreeing on those share memo and
// singleflight; all runners share the server's cell cache and telemetry.
type runnerKey struct {
	cfg     experiments.Config
	faults  string
	timeout time.Duration
}

// Server is the webmm experiment service. Create with New, serve with
// ListenAndServe (which drains on context cancellation) or mount Handler
// on an existing mux; Close drains the worker pool.
type Server struct {
	cfg     Config
	cache   *experiments.CellCache
	cacheBE experiments.CacheBackend // backing store for /cache, nil when uncached
	tel     *telemetry.Telemetry
	budget  *budget.Controller // nil without Config.GlobalBudget
	fleet   *fleet             // nil outside coordinator mode

	queue chan *job
	wg    sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	runners map[runnerKey]*experiments.Runner

	ready     chan struct{} // closed once ListenAndServe resolves the listener
	readyOnce sync.Once     // ready must close on every exit path, exactly once
	addr      string        // valid after ready; "" when the listen failed

	started  time.Time
	draining atomic.Bool
	inflight atomic.Int64
	accepted atomic.Uint64
	rejected atomic.Uint64
	finished atomic.Uint64
}

// New builds a server and starts its worker pool (so Handler is usable
// without ListenAndServe). Callers must Close it to stop the workers.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Jobs
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 60 * time.Second
	}
	if cfg.ReadHeaderTimeout <= 0 {
		cfg.ReadHeaderTimeout = 10 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 120 * time.Second
	}
	if cfg.EventWriteTimeout <= 0 {
		cfg.EventWriteTimeout = 30 * time.Second
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 4
	}
	def := experiments.DefaultConfig()
	if cfg.Sim.Scale == 0 {
		cfg.Sim.Scale = def.Scale
	}
	if cfg.Sim.Measure == 0 {
		cfg.Sim.Warmup, cfg.Sim.Measure = def.Warmup, def.Measure
	}
	if cfg.Sim.Seed == 0 {
		cfg.Sim.Seed = def.Seed
	}
	if err := cfg.Sim.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		tel:     cfg.Tel,
		queue:   make(chan *job, cfg.QueueDepth),
		runners: make(map[runnerKey]*experiments.Runner),
		ready:   make(chan struct{}),
		started: time.Now(),
	}
	if s.tel == nil {
		s.tel = telemetry.NewLive()
	}
	be := cfg.Cache
	if be == nil && cfg.CacheDir != "" {
		var err error
		be, err = experiments.NewDiskBackend(cfg.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("server: cell cache: %w", err)
		}
	}
	if be != nil {
		s.cacheBE = be
		s.cache = experiments.NewCellCacheOn(be)
	}
	if len(cfg.Workers) > 0 {
		fl, err := newFleet(s, cfg.Workers, cfg.HedgeAfter)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.fleet = fl
	}
	if cfg.GlobalBudget > 0 {
		s.budget = budget.New(cfg.GlobalBudget, cfg.Pressure)
		s.budget.PublishTo(s.tel.Metrics())
		s.budget.Start()
	}
	s.wg.Add(cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		go s.worker()
	}
	return s, nil
}

// Close drains the worker pool: no new jobs are admitted, queued and
// running jobs finish, the workers exit, and the budget controller (if any)
// stops. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
	if s.budget != nil {
		s.budget.Close()
	}
}

// runnerFor returns (creating on first use) the shared runner for one
// configuration. Every runner shares the server's cache and telemetry.
func (s *Server) runnerFor(k runnerKey) (*experiments.Runner, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runners[k]; ok {
		return r, nil
	}
	plan, err := experiments.ParseFaults(k.faults)
	if err != nil {
		return nil, err
	}
	r := experiments.NewRunner(k.cfg)
	r.Cache = s.cache
	r.Tel = s.tel
	r.Faults = plan
	r.Timeout = k.timeout
	r.Budget = s.budget
	if s.fleet != nil {
		// Coordinator mode: the runner keeps its memo, shared cache, and
		// singleflight — identical in-flight cells across concurrent client
		// requests collapse to one upstream call — but execution happens on
		// the fleet.
		k := k
		r.Exec = func(ctx context.Context, c experiments.Cell) (experiments.CellResult, error) {
			return s.fleet.exec(ctx, k, c)
		}
	}
	s.runners[k] = r
	return r, nil
}

// enqueue admits a job, reporting false when the queue is full or the
// server is draining.
func (s *Server) enqueue(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining.Load() {
		return false
	}
	select {
	case s.queue <- j:
		return true
	default:
		return false
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.inflight.Add(1)
		j.execute()
		s.inflight.Add(-1)
		s.finished.Add(1)
		// Only now does the handler's stream end: a client that has read
		// all of it finds its slot released and its request counted.
		close(j.events)
	}
}

// Addr blocks until ListenAndServe has resolved its listener and returns
// the bound address — or "" when the listen failed (Addr never blocks
// forever on a failed server). Only meaningful with ListenAndServe.
func (s *Server) Addr() string {
	<-s.ready
	return s.addr
}

// ListenAndServe serves HTTP until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight requests drain (bounded by
// DrainTimeout, after which their cells are cooperatively cancelled), the
// worker pool stops, and nil is returned for a clean drain.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		// ready must close on every exit path: a concurrent Addr() caller
		// would otherwise block forever on a server that never bound.
		s.readyOnce.Do(func() { close(s.ready) })
		return err
	}
	s.addr = ln.Addr().String()
	s.readyOnce.Do(func() { close(s.ready) })

	srv := &http.Server{
		Handler: s.Handler(),
		// One slowloris client must not pin a connection through drain:
		// headers have a deadline and idle keep-alives are reaped. There
		// is deliberately no WriteTimeout — progress streams legitimately
		// run for minutes; per-write deadlines in handleRun cover stalled
		// readers instead.
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		s.Close()
		return err // listener failed outright
	case <-ctx.Done():
	}
	s.draining.Store(true)
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	serr := srv.Shutdown(dctx)
	if serr != nil {
		// Drain budget exceeded: force-close connections, which cancels
		// the request contexts and (cooperatively) the cells under them.
		_ = srv.Close()
	}
	<-errc // http.ErrServerClosed
	s.Close()
	return serr
}

// Handler returns the service's routes: POST /run (cells and experiments,
// streamed NDJSON progress), GET /metrics (Prometheus text), GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	// The fleet-shared cell store: GET/PUT/DELETE /cache/{key}. Backed by
	// whatever cache this instance uses (disk or remote); without one the
	// handler answers 503.
	mux.Handle("/cache/", experiments.CacheHandler(s.cacheBE))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/", s.handleIndex)
	return mux
}

// runRequest is the POST /run body. Exactly one of Experiment, CellSpec,
// or (Alloc, Workload) selects the work; zero config fields inherit the
// server's defaults.
type runRequest struct {
	// Experiment names a registered experiment ("fig1", "table4", ...).
	Experiment string `json:"experiment,omitempty"`

	// CellSpec selects one cell verbatim — every field exactly as the
	// experiments.Cell struct, RestartEvery already scaled, Budget
	// included. The fleet coordinator dispatches planned cells this way
	// so nothing is re-derived on the worker; the flat fields below
	// remain the hand-written form (ignored when CellSpec is set).
	CellSpec *experiments.Cell `json:"cell,omitempty"`

	// Cell selection (ignored when Experiment is set).
	Platform string `json:"platform,omitempty"`
	Alloc    string `json:"alloc,omitempty"`
	Workload string `json:"workload,omitempty"`
	Cores    int    `json:"cores,omitempty"`
	Ruby     bool   `json:"ruby,omitempty"`
	// MemSched names a DRAM scheduling policy (memsys registry); the cell
	// then runs over the banked DRAM model instead of the paper's bus.
	// Empty keeps the bus.
	MemSched string `json:"memsched,omitempty"`
	// RestartEvery is the Ruby restart period in the paper's full-scale
	// transactions (0 = never); it is rescaled exactly like the figures.
	// A negative period, or one on a PHP cell, is a 400.
	RestartEvery int `json:"restart_every,omitempty"`

	// Config overrides (0 = server default). Warmup and XeonLargePages
	// are pointers so an explicit 0 or false overrides the default too;
	// absent keeps the default.
	Scale          int    `json:"scale,omitempty"`
	Warmup         *int   `json:"warmup,omitempty"`
	Measure        int    `json:"measure,omitempty"`
	Seed           uint64 `json:"seed,omitempty"`
	XeonLargePages *bool  `json:"xeon_large_pages,omitempty"`
	// Fidelity overrides the server's default measurement fidelity
	// ("full" or "sampled"; empty keeps the default).
	Fidelity string `json:"fidelity,omitempty"`
	// Faults is a fault-injection plan spec (see experiments.ParseFaults);
	// an active plan bypasses the shared cell cache, exactly as the CLI
	// does.
	Faults string `json:"faults,omitempty"`
	// TimeoutMS bounds each cell attempt; it can only tighten the
	// server's CellTimeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// event is one NDJSON progress line.
type event map[string]any

// job is one admitted request: the worker executes it and streams events
// back to the handler, which owns the connection. events is closed by the
// worker once the job no longer holds a slot; the handler always drains
// it, so sends cannot deadlock.
type job struct {
	ctx    context.Context
	r      *experiments.Runner
	cell   experiments.Cell
	exp    string // experiment name; "" for a single-cell job
	jobs   int    // Runner.Experiment's worker count for an experiment job
	events chan event
	cancel context.CancelFunc // set by handleRun; fired when the client stalls
}

// emit hands one progress event to the handler. A dead client's context is
// cancelled, so emission never blocks on a connection nobody reads.
func (j *job) emit(e event) {
	select {
	case j.events <- e:
	case <-j.ctx.Done():
	}
}

// execute runs the job, streaming its events; the worker closes the
// stream after releasing the job's slot.
func (j *job) execute() {
	if j.ctx.Err() != nil {
		return // client left while queued; nothing to simulate
	}
	j.emit(event{"event": "running"})
	if j.exp == "" {
		res := j.r.RunContext(j.ctx, j.cell)
		// The config echo lets a fleet coordinator refuse a result this
		// instance simulated under anything but what it dispatched.
		e := event{"event": "result", "cell": j.cell.Key(), "failed": res.Failed, "result": res, "config": j.r.Cfg}
		if res.Failed {
			// A fleet coordinator on the other end of this stream needs to
			// know whether the failure was the cell's own (final — retrying
			// elsewhere would fail the same way) or environmental (timeout,
			// cancellation, pressure: worth a fresh attempt).
			if msg, env, ok := j.failure(j.cell); ok {
				e["error"], e["environmental"] = msg, env
			}
		}
		j.emit(e)
		return
	}
	// Each settled cell of the plan becomes a progress event; the memo
	// dedups cells shared between requests. The failures listed at the
	// end are this plan's own, with each cell's latest error, not
	// everything the shared runner ever recorded.
	var (
		mu     sync.Mutex
		failed []experiments.Cell
	)
	out, err := j.r.Experiment(j.ctx, j.exp, j.jobs, func(res experiments.CellResult, done, total int) {
		if res.Failed {
			mu.Lock()
			failed = append(failed, res.Cell)
			mu.Unlock()
		}
		j.emit(event{"event": "cell", "cell": res.Key(), "failed": res.Failed, "done": done, "total": total})
	})
	if err != nil {
		j.emit(event{"event": "error", "error": err.Error()})
		return
	}
	var tables []string
	for _, t := range out.Tables {
		tables = append(tables, t.String())
	}
	for _, ch := range out.Charts {
		tables = append(tables, ch.String())
	}
	done := event{"event": "done", "experiment": j.exp, "tables": tables}
	if len(failed) > 0 {
		var msgs []string
		for _, c := range failed {
			msg, _, _ := j.failure(c)
			msgs = append(msgs, c.Key()+": "+msg)
		}
		done["failures"] = msgs
	}
	j.emit(done)
}

// failure finds the recorded CellError for c (most recent first) and
// classifies it: environmental failures — cancellation, deadline, transient
// fleet trouble, budget pressure — are retryable; everything else is the
// cell's own deterministic verdict.
func (j *job) failure(c experiments.Cell) (msg string, environmental bool, ok bool) {
	fails := j.r.Failures()
	for i := len(fails) - 1; i >= 0; i-- {
		f := fails[i]
		if f.Cell != c {
			continue
		}
		env := f.Pressured ||
			errors.Is(f.Err, context.Canceled) ||
			errors.Is(f.Err, context.DeadlineExceeded) ||
			errors.Is(f.Err, experiments.ErrTransient)
		return f.Err.Error(), env, true
	}
	return "", false, false
}

// buildJob validates a request and resolves its runner. Validation happens
// before admission so a bad request costs a 400, never a queue slot: the
// config through Config.Validate, the cell through Cell.Validate.
func (s *Server) buildJob(ctx context.Context, req runRequest) (*job, error) {
	cfg := s.cfg.Sim
	if req.Scale != 0 {
		cfg.Scale = req.Scale
	}
	if req.Warmup != nil {
		cfg.Warmup = *req.Warmup
	}
	if req.Measure != 0 {
		cfg.Measure = req.Measure
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	if req.XeonLargePages != nil {
		cfg.XeonLargePages = *req.XeonLargePages
	}
	if req.Fidelity != "" {
		cfg.Fidelity = req.Fidelity
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	timeout := s.cfg.CellTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; timeout == 0 || d < timeout {
			timeout = d
		}
	}
	r, err := s.runnerFor(runnerKey{cfg: cfg, faults: req.Faults, timeout: timeout})
	if err != nil {
		return nil, err
	}
	j := &job{ctx: ctx, r: r, events: make(chan event, 4), jobs: 1}
	if req.Experiment != "" {
		if _, err := experiments.ExperimentByName(req.Experiment); err != nil {
			return nil, err
		}
		j.exp = req.Experiment
		// A plain server runs an experiment's plan on one goroutine: its
		// worker pool is the parallelism across requests. A coordinator's
		// cells run on the fleet, so it keeps two in flight per worker,
		// every shard busy while its queue stays shallow.
		if s.fleet != nil {
			j.jobs = 2 * len(s.fleet.workers)
		}
		return j, nil
	}
	var c experiments.Cell
	if req.CellSpec != nil {
		c = *req.CellSpec
	} else {
		if req.Workload == "" && req.Ruby {
			req.Workload = workload.Rails().Name
		}
		// The flat restart period is in the paper's full-scale
		// transactions and is rescaled exactly like the figures.
		c = experiments.Cell{
			Platform: req.Platform, Alloc: req.Alloc, Workload: req.Workload,
			Cores: req.Cores, Ruby: req.Ruby, RestartEvery: r.RubyRestartPeriod(req.RestartEvery),
			MemSched: req.MemSched,
		}
	}
	if c.Platform == "" {
		c.Platform = "xeon"
	}
	if c.Cores == 0 {
		c.Cores = 8
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	j.cell = c
	return j, nil
}

// pressureLevel is the current rung of the admission ladder; Nominal
// without a budget controller.
func (s *Server) pressureLevel() budget.Level {
	if s.budget == nil {
		return budget.Nominal
	}
	return s.budget.Level()
}

// retryAfterSeconds estimates when a turned-away client should come back:
// the work ahead of it (the queued jobs plus its own) times the observed
// median cell wall time, clamped to [1s, 300s]. Before the first cell
// resolves the histogram is empty and the estimate is the 1-second floor.
func (s *Server) retryAfterSeconds() int {
	p50 := s.tel.Metrics().Histogram("webmm_cell_seconds", "wall time per resolved cell",
		[]float64{0.001, 0.01, 0.1, 1, 10, 60, 600}, nil).Quantile(0.5)
	wait := int(math.Ceil(float64(len(s.queue)+1) * p50))
	if wait < 1 {
		wait = 1
	}
	if wait > 300 {
		wait = 300
	}
	return wait
}

// rejectPressure turns a request away with the computed Retry-After.
func (s *Server) rejectPressure(w http.ResponseWriter, code int, msg string) {
	s.rejected.Add(1)
	s.tel.Metrics().Counter("webmm_server_rejected_total",
		"requests rejected because of queue or memory pressure", nil).Inc()
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	httpError(w, code, msg)
}

// decodeRunRequest reads a POST /run body: at most 1 MiB, and no field
// runRequest does not declare.
func decodeRunRequest(w http.ResponseWriter, body io.ReadCloser) (runRequest, error) {
	var req runRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req, err := decodeRunRequest(w, r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}

	// The admission ladder (budget.Level): under memory pressure the server
	// degrades before it drops. Degrade forces new work to the cheaper
	// sampled fidelity; Queue stops growing the in-flight set (work is
	// admitted only when a worker can take it now); Shed refuses outright.
	// Each rung keeps /healthz green — pressure never kills the process.
	level := s.pressureLevel()
	if level >= budget.Shed {
		s.tel.Metrics().Counter("webmm_server_shed_total",
			"requests refused because global memory pressure reached the shed threshold", nil).Inc()
		s.rejectPressure(w, http.StatusTooManyRequests,
			fmt.Sprintf("shedding load: memory pressure %.2f; retry later", s.budget.Pressure()))
		return
	}
	if level >= budget.Queue && (len(s.queue) > 0 || s.inflight.Load() >= int64(s.cfg.Jobs)) {
		s.tel.Metrics().Counter("webmm_server_pressure_queued_total",
			"requests turned away at the queue pressure level (no idle worker)", nil).Inc()
		s.rejectPressure(w, http.StatusServiceUnavailable,
			fmt.Sprintf("memory pressure %.2f: not queueing new work; retry later", s.budget.Pressure()))
		return
	}
	degraded := false
	if level >= budget.Degrade && req.Fidelity != experiments.FidelitySampled {
		req.Fidelity = experiments.FidelitySampled
		degraded = true
		s.tel.Metrics().Counter("webmm_server_degraded_total",
			"requests forced to sampled fidelity by memory pressure", nil).Inc()
	}

	// The job runs under its own cancellable child of the request context:
	// a disconnect cancels it via r.Context(), and a client that stalls
	// without disconnecting (below) is cancelled explicitly. Either way the
	// cell stops cooperatively and the worker slot frees.
	jctx, jcancel := context.WithCancel(r.Context())
	defer jcancel()
	j, err := s.buildJob(jctx, req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	j.cancel = jcancel
	if !s.enqueue(j) {
		s.rejectPressure(w, http.StatusTooManyRequests, "admission queue full; retry later")
		return
	}
	s.accepted.Add(1)
	s.tel.Metrics().Counter("webmm_server_requests_total",
		"requests admitted to the worker pool", nil).Inc()

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	dead := false
	write := func(e event) {
		if dead {
			return
		}
		// Per-event write deadline: the stream as a whole may legitimately
		// run for minutes (hence no http.Server WriteTimeout), but any
		// single event that cannot be flushed within EventWriteTimeout means
		// the client stopped reading. Cancel the job — a stalled-but-
		// connected reader must not pin a worker slot — and keep draining.
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.EventWriteTimeout))
		if err := enc.Encode(e); err != nil {
			dead = true
			j.cancel()
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	queued := event{"event": "queued", "queue_depth": len(s.queue), "queue_cap": cap(s.queue)}
	if degraded {
		queued["degraded"] = "sampled fidelity (memory pressure)"
	}
	write(queued)
	// Drain until the worker closes the channel — unconditionally, so the
	// worker's sends always complete even if the client is gone.
	for e := range j.events {
		write(e)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.tel.Metrics().WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	resp := map[string]any{
		"status":    "ok",
		"uptime_s":  time.Since(s.started).Seconds(),
		"workers":   s.cfg.Jobs,
		"queue":     len(s.queue),
		"queue_cap": cap(s.queue),
		"inflight":  s.inflight.Load(),
		"accepted":  s.accepted.Load(),
		"finished":  s.finished.Load(),
		"rejected":  s.rejected.Load(),
		"draining":  s.draining.Load(),
	}
	if s.budget != nil {
		// Pressure never flips status: degradation is the design, not a
		// failure, so health stays "ok" all the way up the ladder.
		resp["budget_total_bytes"] = s.budget.Total()
		resp["budget_peak_live_bytes"] = s.budget.PeakLive()
		resp["budget_denials"] = s.budget.Denials()
		resp["budget_tenants"] = s.budget.Tenants()
		resp["pressure"] = s.budget.Pressure()
		resp["pressure_level"] = s.budget.Level().String()
	}
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		httpError(w, http.StatusNotFound, "not found")
		return
	}
	fmt.Fprint(w, `webmm experiment service

POST /run          {"platform":"xeon","alloc":"ddmalloc","workload":"phpBB","cores":8}
                   {"experiment":"fig1","scale":64}
                   {"cell":{...}} (verbatim cell; used by fleet coordinators)
                   -> NDJSON progress stream (queued, running, cell..., result|done)
GET  /cache/{key}  fleet-shared cell result store (also PUT, DELETE; 503 without a cache)
GET  /metrics      Prometheus text exposition of the shared telemetry registry
GET  /healthz      queue and worker status

Started with -workers, this instance is a fleet coordinator: it plans
experiments locally and executes every cell remotely, with request
coalescing, failover, and hedged retries.
`)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
