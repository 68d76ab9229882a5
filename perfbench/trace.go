package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"webmm/internal/experiments"
)

// spans keeps the traced run's spans in memory and writes them as one
// Chrome trace (chrome://tracing, Perfetto) when the run ends.
type spans struct {
	epoch  time.Time
	events []traceEvent
}

type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // µs since the first span
	Dur  float64           `json:"dur"` // µs
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// add records one span of the cell keyed key on thread tid.
func (s *spans) add(key, name string, tid int, t0, t1 time.Time) {
	if s.epoch.IsZero() {
		s.epoch = t0
	}
	s.events = append(s.events, traceEvent{
		Name: name, Cat: "perfbench", Ph: "X", PID: 1, TID: tid,
		TS:   float64(t0.Sub(s.epoch).Nanoseconds()) / 1e3,
		Dur:  float64(t1.Sub(t0).Nanoseconds()) / 1e3,
		Args: map[string]string{"cell": key},
	})
}

// addRequests records each request of a serve phase as a request span
// with its admit, queue and exec children, on its client's thread.
func (s *spans) addRequests(phase string, rs []reqResult, script []int, keys []string) {
	for i, r := range rs {
		if r.err != nil {
			continue
		}
		key, tid := keys[script[i]], r.client+1
		at := func(d time.Duration) time.Time { return r.start.Add(d) }
		s.add(key, phase+" request", tid, r.start, at(r.result))
		s.add(key, "admit", tid, r.start, at(r.queued))
		s.add(key, "queue", tid, at(r.queued), at(r.running))
		s.add(key, "exec", tid, at(r.running), at(r.result))
	}
}

func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": s.events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cachePhase selects which bucket of a timedCache the calls land in.
type cachePhase int

const (
	coldPhase cachePhase = iota
	warmPhase
)

type cacheStats struct {
	loads, stores []float64 // ms per call
	hits          int
}

// timedCache times every call through the cache backends it wraps, per
// phase.
type timedCache struct {
	mu    sync.Mutex
	phase cachePhase
	st    [2]cacheStats
}

func (t *timedCache) wrap(be experiments.CacheBackend) experiments.CacheBackend {
	return &timedBackend{CacheBackend: be, t: t}
}

func (t *timedCache) setPhase(p cachePhase) {
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

// report sets the cache metrics: call latencies over every call, counts
// per pass of each phase (passes[phase] is how many passes ran).
func (t *timedCache) report(rep *report, passes [2]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var loads, stores []float64
	var nLoads, nHits, nStores float64
	for p, st := range t.st {
		loads = append(loads, st.loads...)
		stores = append(stores, st.stores...)
		if passes[p] > 0 {
			nLoads += float64(len(st.loads)) / float64(passes[p])
			nHits += float64(st.hits) / float64(passes[p])
			nStores += float64(len(st.stores)) / float64(passes[p])
		}
	}
	rep.set("experiments.cache_load_ms", median(loads))
	rep.set("experiments.cache_store_ms", median(stores))
	rep.set("experiments.cache_loads", nLoads)
	rep.set("experiments.cache_hits", nHits)
	rep.set("experiments.cache_stores", nStores)
}

type timedBackend struct {
	experiments.CacheBackend
	t *timedCache
}

func (b *timedBackend) Load(key string) ([]byte, bool) {
	t0 := time.Now()
	data, ok := b.CacheBackend.Load(key)
	d := ms(time.Since(t0))
	b.t.mu.Lock()
	st := &b.t.st[b.t.phase]
	st.loads = append(st.loads, d)
	if ok {
		st.hits++
	}
	b.t.mu.Unlock()
	return data, ok
}

func (b *timedBackend) Store(key string, data []byte) {
	t0 := time.Now()
	b.CacheBackend.Store(key, data)
	d := ms(time.Since(t0))
	b.t.mu.Lock()
	st := &b.t.st[b.t.phase]
	st.stores = append(st.stores, d)
	b.t.mu.Unlock()
}

// fleetTrace is the serve_fleet run's instrumentation: the cache wrapper
// every instance is given and a middleware timing POST /run at the
// workers. A nil *fleetTrace instruments nothing.
type fleetTrace struct {
	caches    *timedCache
	mu        sync.Mutex
	workerRun []float64 // ms per POST /run at a worker
}

func (t *fleetTrace) cache(be experiments.CacheBackend) experiments.CacheBackend {
	if t == nil {
		return be
	}
	return t.caches.wrap(be)
}

func (t *fleetTrace) setPhase(p cachePhase) {
	if t != nil {
		t.caches.setPhase(p)
	}
}

func (t *fleetTrace) middleware() func(http.Handler) http.Handler {
	if t == nil {
		return nil
	}
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/run" {
				h.ServeHTTP(w, r)
				return
			}
			t0 := time.Now()
			h.ServeHTTP(w, r)
			d := ms(time.Since(t0))
			t.mu.Lock()
			t.workerRun = append(t.workerRun, d)
			t.mu.Unlock()
		})
	}
}

// report sets the serve layers: the p50 of each request stage as the
// client saw it, the workers' own POST /run time, and what the dispatch
// from coordinator to worker added on top.
func (t *fleetTrace) report(rep *report, cold, warm []reqResult, rounds int, ctr map[string][]float64) {
	stage := func(rs []reqResult, f func(r reqResult) time.Duration) float64 {
		xs := make([]float64, 0, len(rs))
		for _, r := range rs {
			if r.err == nil {
				xs = append(xs, ms(f(r)))
			}
		}
		return median(xs)
	}
	admit := func(r reqResult) time.Duration { return r.queued }
	queue := func(r reqResult) time.Duration { return r.running - r.queued }
	exec := func(r reqResult) time.Duration { return r.result - r.running }
	rep.set("server.cold_admit_ms", stage(cold, admit))
	rep.set("server.cold_queue_ms", stage(cold, queue))
	rep.set("server.cold_exec_ms", stage(cold, exec))
	rep.set("server.warm_admit_ms", stage(warm, admit))
	rep.set("server.warm_queue_ms", stage(warm, queue))
	rep.set("server.warm_exec_ms", stage(warm, exec))
	t.mu.Lock()
	run := median(t.workerRun)
	t.mu.Unlock()
	rep.set("server.worker_run_ms", run)
	rep.set("server.dispatch_ms", stage(cold, exec)-run)
	rep.set("experiments.memo_hits", median(ctr["webmm_memo_hits_total"]))
	rep.set("server.dispatches", median(ctr["webmm_fleet_dispatch_total"]))
	rep.set("server.rejected", median(ctr["webmm_server_rejected_total"]))
	t.caches.report(rep, [2]int{rounds, rounds})
}
