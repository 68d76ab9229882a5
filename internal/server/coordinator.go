// Fleet coordinator: `webmm serve -workers http://a,http://b,...` turns an
// instance into a thin dispatcher that runs experiments through
// Runner.Experiment like any instance but executes every cell remotely over
// the existing single-cell POST /run protocol. The coordinator's Runners keep all their machinery —
// memoization, the shared cell cache, and crucially the singleflight — so a
// thundering herd of identical client requests collapses to ONE upstream
// call per cell fleet-wide, not one per client. Dispatch adds two
// reliability moves on top:
//
//   - failover: a worker that cannot be reached, turns the request away, or
//     answers for a different cell or under a different config costs one
//     immediate retry on the next shard, not a failed cell;
//   - hedging: a cell that exceeds HedgeAfter × the observed p50 cell time
//     (the same webmm_cell_seconds histogram the Retry-After estimate uses)
//     is launched on a second shard and the first answer wins. The loser's
//     HTTP request is cancelled, which the worker propagates into the
//     cell's context — the hedged-away slot frees instead of simulating for
//     nobody.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"strings"
	"time"

	"webmm/internal/experiments"
	"webmm/internal/telemetry"
)

// fleet is the coordinator's dispatch state.
type fleet struct {
	s          *Server
	workers    []string
	client     *http.Client
	hedgeAfter float64 // multiple of observed p50; <= 0 disables hedging
}

// newFleet validates the worker list. Hedging needs the default filled in
// by Server.New (4× p50) unless the caller disabled it with a negative
// HedgeAfter.
func newFleet(s *Server, workers []string, hedgeAfter float64) (*fleet, error) {
	if len(workers) == 0 {
		return nil, errors.New("coordinator needs at least one worker URL")
	}
	clean := make([]string, 0, len(workers))
	for _, w := range workers {
		w = strings.TrimRight(strings.TrimSpace(w), "/")
		u, err := url.Parse(w)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("bad worker URL %q (want http://host:port)", w)
		}
		clean = append(clean, w)
	}
	return &fleet{
		s:       s,
		workers: clean,
		// No overall client timeout: cells legitimately run for minutes and
		// the per-request context already bounds each dispatch.
		client:     &http.Client{},
		hedgeAfter: hedgeAfter,
	}, nil
}

// pick maps a cell to its home shard by hashing the cell key, so repeated
// requests for one cell land on one worker and hit that worker's memo and
// warm state. Hedges and failovers walk to the next shard.
func (f *fleet) pick(c experiments.Cell) int {
	h := fnv.New32a()
	fmt.Fprint(h, c.Key())
	return int(h.Sum32() % uint32(len(f.workers)))
}

// hedgeDelay derives the hedge trigger from the observed median cell wall
// time. Before any cell has resolved there is no signal (p50 = 0) and no
// hedge — the first cells define "slow". The delay is clamped below so a
// cache-hit-dominated median (sub-millisecond) cannot make the coordinator
// hedge every dispatch reflexively.
func (f *fleet) hedgeDelay() time.Duration {
	if f.hedgeAfter <= 0 {
		return 0
	}
	p50 := experiments.CellSeconds(f.s.tel.Metrics()).Quantile(0.5)
	if p50 <= 0 {
		return 0
	}
	d := time.Duration(f.hedgeAfter * p50 * float64(time.Second))
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}

// remoteFailure is a worker's verdict that the cell itself failed (it ran
// and reported Failed). It is final — retrying a deterministic failure on
// another shard would just fail again — except when the worker marked it
// environmental (its own timeout or cancellation), which unwraps to
// ErrTransient so the coordinator's runner does not memoize it.
type remoteFailure struct {
	worker        string
	msg           string
	environmental bool
}

func (e *remoteFailure) Error() string {
	return fmt.Sprintf("worker %s: %s", e.worker, e.msg)
}

func (e *remoteFailure) Unwrap() error {
	if e.environmental {
		return experiments.ErrTransient
	}
	return nil
}

// workerBody renders the single-cell /run request for one dispatch. The
// cell goes verbatim (the "cell" field — RestartEvery is already scaled,
// Budget already set), and every config field is sent explicitly so the
// worker simulates under the coordinator's configuration, not its own
// defaults: Warmup even when 0, XeonLargePages even when false, and
// Fidelity with the zero value spelled out as "full". call still checks
// the config the worker echoes back.
func (f *fleet) workerBody(k runnerKey, c experiments.Cell) []byte {
	req := runRequest{
		CellSpec:       &c,
		Scale:          k.cfg.Scale,
		Warmup:         &k.cfg.Warmup,
		Measure:        k.cfg.Measure,
		Seed:           k.cfg.Seed,
		XeonLargePages: &k.cfg.XeonLargePages,
		Fidelity:       k.cfg.Fidelity,
		Faults:         k.faults,
		TimeoutMS:      int(k.timeout / time.Millisecond),
	}
	if req.Fidelity == "" {
		req.Fidelity = experiments.FidelityFull
	}
	body, _ := json.Marshal(req)
	return body
}

// exec is the coordinator Runner's Exec hook: run one cell somewhere on the
// fleet and return its result. The runner above this call still owns
// memoization, the shared cache, and singleflight; exec only moves one
// cell's work to one (or, hedged, two) shards.
func (f *fleet) exec(ctx context.Context, k runnerKey, c experiments.Cell) (experiments.CellResult, error) {
	body := f.workerBody(k, c)
	primary := f.pick(c)
	n := len(f.workers)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // the losing hedge's request dies with the dispatch

	type answer struct {
		res experiments.CellResult
		err error
		w   int
	}
	ch := make(chan answer, 2) // buffered: a loser's late send never blocks
	met := f.s.tel.Metrics()
	launch := func(w int) {
		met.Counter("webmm_fleet_dispatch_total",
			"cells dispatched to fleet workers", telemetry.Labels{"worker": f.workers[w]}).Inc()
		go func() {
			res, err := f.call(ctx, w, body, k.cfg, c)
			ch <- answer{res, err, w}
		}()
	}
	launch(primary)
	launched, outstanding := 1, 1

	var hedge <-chan time.Time
	if n > 1 {
		if d := f.hedgeDelay(); d > 0 {
			t := time.NewTimer(d)
			defer t.Stop()
			hedge = t.C
		}
	}

	var lastErr error
	for {
		select {
		case a := <-ch:
			outstanding--
			if a.err == nil {
				if a.w != primary {
					met.Counter("webmm_fleet_hedge_wins_total",
						"hedged or failed-over dispatches answered by the secondary shard", nil).Inc()
				}
				return a.res, nil
			}
			var rf *remoteFailure
			if errors.As(a.err, &rf) {
				// The cell ran and failed; that IS the answer.
				return a.res, a.err
			}
			lastErr = a.err
			// Transport-level failure: fail over to the next shard once.
			if launched < 2 && n > 1 && ctx.Err() == nil {
				launch((primary + 1) % n)
				launched++
				outstanding++
				continue
			}
			if outstanding == 0 {
				return experiments.CellResult{Cell: c, Failed: true},
					fmt.Errorf("%w: %v", experiments.ErrTransient, lastErr)
			}
		case <-hedge:
			hedge = nil
			if launched < 2 {
				met.Counter("webmm_fleet_hedges_total",
					"cells hedged onto a second shard after exceeding the p50-derived delay", nil).Inc()
				launch((primary + 1) % n)
				launched++
				outstanding++
			}
		case <-ctx.Done():
			return experiments.CellResult{Cell: c, Failed: true}, ctx.Err()
		}
	}
}

// call executes cell c under cfg on one worker and decodes its NDJSON
// stream down to the final "result" event. Non-200 statuses, truncated
// streams, and a result for any cell other than c or under any config other
// than cfg (a worker at the Degrade rung runs sampled; one started with
// other defaults runs those) are transport errors: the caller may fail over
// or hedge, and never memoizes or caches them. A decoded result for c under
// cfg with Failed set comes back as a remoteFailure.
func (f *fleet) call(ctx context.Context, w int, body []byte, cfg experiments.Config, c experiments.Cell) (experiments.CellResult, error) {
	worker := f.workers[w]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/run", bytes.NewReader(body))
	if err != nil {
		return experiments.CellResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return experiments.CellResult{}, fmt.Errorf("worker %s: %w", worker, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return experiments.CellResult{}, fmt.Errorf("worker %s: HTTP %d", worker, resp.StatusCode)
	}
	var line struct {
		Event         string                  `json:"event"`
		Failed        bool                    `json:"failed"`
		Error         string                  `json:"error"`
		Environmental bool                    `json:"environmental"`
		Result        *experiments.CellResult `json:"result"`
		Config        *experiments.Config     `json:"config"`
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), maxCacheEntryLine)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		line.Error, line.Environmental, line.Result, line.Config = "", false, nil, nil
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return experiments.CellResult{}, fmt.Errorf("worker %s: bad progress line: %w", worker, err)
		}
		if line.Event != "result" || line.Result == nil {
			continue
		}
		res := *line.Result
		if res.Cell != c || line.Config == nil || *line.Config != cfg {
			return experiments.CellResult{}, fmt.Errorf("worker %s: result for cell %s under %+v, dispatched %s under %+v",
				worker, res.Cell.Key(), line.Config, c.Key(), cfg)
		}
		if res.Failed {
			msg := line.Error
			if msg == "" {
				msg = "cell failed"
			}
			return res, &remoteFailure{worker: worker, msg: msg, environmental: line.Environmental}
		}
		return res, nil
	}
	if err := sc.Err(); err != nil {
		return experiments.CellResult{}, fmt.Errorf("worker %s: %w", worker, err)
	}
	return experiments.CellResult{}, fmt.Errorf("worker %s: stream ended without a result", worker)
}

// maxCacheEntryLine bounds one NDJSON progress line from a worker; result
// events embed a full CellResult, which is a few KB.
const maxCacheEntryLine = 1 << 20
