// Package budget apportions one global byte budget across concurrently
// running cells, in the style of MemBalancer ("Optimal Heap Limits for
// Reducing Browser Memory Use"): each tenant's limit is its live footprint
// plus a share of the global headroom proportional to the square root of
// its live allocation rate. The √-rule is compositional — the per-tenant
// limits always sum to (at most) the global budget plus the configured
// per-tenant progress floor — so one controller instance can govern any mix
// of cells without re-tuning.
//
// The controller is pure control plane: tenants allocate on their own
// goroutines against mem.AddressSpace budgets, and the controller retargets
// those budgets from the outside (AddressSpace's budget word is atomic and
// every TryMap re-reads it, so a pushed limit takes effect at the tenant's
// next arena-map boundary). Allocation rates come from the same per-size-
// class counters the telemetry layer records: a Lease embeds a
// telemetry.AllocProfile and plugs in wherever a sim.AllocRecorder goes.
package budget

import (
	"math"
	"sync"
	"time"

	"webmm/internal/mem"
	"webmm/internal/telemetry"
)

// Level is a rung of the pressure ladder. Higher is worse.
type Level int

const (
	// Nominal: plenty of headroom, admit everything as requested.
	Nominal Level = iota
	// Degrade: admit new work, but force it to sampled fidelity.
	Degrade
	// Queue: stop growing the in-flight set; new work waits or is turned
	// away with a Retry-After.
	Queue
	// Shed: refuse new work outright until pressure falls.
	Shed
)

func (l Level) String() string {
	switch l {
	case Nominal:
		return "nominal"
	case Degrade:
		return "degrade"
	case Queue:
		return "queue"
	case Shed:
		return "shed"
	}
	return "unknown"
}

// Policy tunes the controller. The zero value means "use the defaults
// below"; any field left zero is filled in.
type Policy struct {
	// DegradeAt, QueueAt and ShedAt are global utilization thresholds
	// (live/total) for the pressure ladder. Defaults 0.70, 0.85, 0.95.
	DegradeAt float64
	QueueAt   float64
	ShedAt    float64
	// Interval is the background rebalance period. Default 50ms.
	Interval time.Duration
	// Floor is the minimum headroom granted to every tenant above its
	// live bytes, so no tenant is ever starved into a zero-progress spin
	// (the global budget is a target, not a hard wall: total overshoot is
	// bounded by tenants × Floor). Default 256 KiB. A squeezed lease
	// (Lease.Squeeze) bypasses the floor — squeezing exists precisely to
	// force denials.
	Floor uint64
	// Alpha is the EWMA smoothing factor for the allocation-rate
	// estimate: rate = Alpha·instant + (1−Alpha)·previous. Default 0.5.
	Alpha float64
}

func (p Policy) withDefaults() Policy {
	if p.DegradeAt == 0 {
		p.DegradeAt = 0.70
	}
	if p.QueueAt == 0 {
		p.QueueAt = 0.85
	}
	if p.ShedAt == 0 {
		p.ShedAt = 0.95
	}
	if p.Interval == 0 {
		p.Interval = 50 * time.Millisecond
	}
	if p.Floor == 0 {
		p.Floor = 256 * mem.KiB
	}
	if p.Alpha == 0 {
		p.Alpha = 0.5
	}
	return p
}

// Controller apportions a global byte budget across admitted leases. All
// methods are safe for concurrent use. New does not start the background
// sampler; call Start for wall-clock operation or drive Tick by hand for
// deterministic tests.
type Controller struct {
	policy Policy

	mu              sync.Mutex
	total           uint64
	leases          map[*Lease]struct{}
	peakLive        uint64
	releasedDenials uint64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	started  bool

	// Optional metrics (nil-safe telemetry instruments).
	mTotal    *telemetry.Gauge
	mLive     *telemetry.Gauge
	mPressure *telemetry.Gauge
	mTenants  *telemetry.Gauge
	mDenials  *telemetry.Counter
	mRebal    *telemetry.Counter
	lastDen   uint64
}

// New returns a controller for the given global budget (bytes). A zero
// total disables budget enforcement: leases are tracked for observability
// but no limits are pushed.
func New(total uint64, policy Policy) *Controller {
	return &Controller{
		policy: policy.withDefaults(),
		total:  total,
		leases: make(map[*Lease]struct{}),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// PublishTo registers the controller's gauges and counters on a telemetry
// registry. A nil registry is fine (instruments become no-ops).
func (c *Controller) PublishTo(r *telemetry.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mTotal = r.Gauge("webmm_budget_total_bytes", "Global memory budget.", nil)
	c.mLive = r.Gauge("webmm_budget_live_bytes", "Sum of admitted tenants' mapped bytes.", nil)
	c.mPressure = r.Gauge("webmm_budget_pressure", "live/total utilization (0 when unbudgeted).", nil)
	c.mTenants = r.Gauge("webmm_budget_tenants", "Currently admitted leases.", nil)
	c.mDenials = r.Counter("webmm_budget_denials_total", "TryMap calls refused by a pushed budget.", nil)
	c.mRebal = r.Counter("webmm_budget_rebalances_total", "Controller rebalance passes.", nil)
	c.mTotal.Set(float64(c.total))
}

// Start launches the background sampler. Safe to call once; pair with
// Close.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.policy.Interval)
		defer t.Stop()
		last := time.Now()
		for {
			select {
			case <-c.stop:
				return
			case now := <-t.C:
				c.Tick(now.Sub(last))
				last = now
			}
		}
	}()
}

// Close stops the background sampler (if started) and waits for it to
// exit. Idempotent.
func (c *Controller) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.mu.Lock()
	started := c.started
	c.mu.Unlock()
	if started {
		<-c.done
	}
}

// Admit registers a tenant's address spaces with the controller and
// immediately rebalances so the new tenant starts with a pushed limit.
// The returned lease is the tenant's allocation recorder; release it when
// the tenant's work completes.
func (c *Controller) Admit(name string, spaces []*mem.AddressSpace) *Lease {
	l := &Lease{c: c, name: name, spaces: spaces}
	c.mu.Lock()
	c.leases[l] = struct{}{}
	c.rebalanceLocked()
	c.mu.Unlock()
	return l
}

// Tick advances the controller by one control interval: refresh each
// lease's allocation-rate estimate over dt, recompute √-rule limits, and
// push them down. Exposed so tests (and the fault injector) can drive the
// controller deterministically without wall-clock time.
func (c *Controller) Tick(dt time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if secs := dt.Seconds(); secs > 0 {
		for l := range c.leases {
			cur := l.ApproxBytes()
			inst := float64(cur-l.lastBytes) / secs
			if !l.seeded {
				l.rate = inst
				l.seeded = true
			} else {
				l.rate = c.policy.Alpha*inst + (1-c.policy.Alpha)*l.rate
			}
			l.lastBytes = cur
		}
	}
	c.rebalanceLocked()
}

// rebalanceLocked recomputes and pushes per-tenant limits. Caller holds
// c.mu.
//
// MemBalancer's rule: limit_i = live_i + headroom × √rate_i / Σ_j √rate_j,
// with headroom = max(0, total − Σ live). A tenant with no rate signal yet
// weighs in at √1 so it is never starved before its first sample.
func (c *Controller) rebalanceLocked() {
	var live uint64
	var sumW float64
	for l := range c.leases {
		l.live = 0
		for _, as := range l.spaces {
			l.live += as.Mapped()
		}
		live += l.live
		l.weight = math.Sqrt(math.Max(l.rate, 1))
		sumW += l.weight
	}
	if live > c.peakLive {
		c.peakLive = live
	}
	if c.total > 0 {
		var headroom uint64
		if c.total > live {
			headroom = c.total - live
		}
		for l := range c.leases {
			share := uint64(float64(headroom) * l.weight / sumW)
			if share < c.policy.Floor {
				share = c.policy.Floor
			}
			limit := l.live + share
			if s := l.squeeze; s > 0 {
				if cap := uint64(s * float64(l.live)); cap < limit {
					limit = cap
				}
			}
			l.pushLocked(limit)
		}
	}
	c.mRebal.Inc()
	c.mLive.Set(float64(live))
	c.mTenants.Set(float64(len(c.leases)))
	c.mTotal.Set(float64(c.total))
	c.mPressure.Set(c.pressureOf(live))
	den := c.denialsLocked()
	if d := den - c.lastDen; d > 0 {
		c.mDenials.Add(d)
		c.lastDen = den
	}
}

func (c *Controller) pressureOf(live uint64) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(live) / float64(c.total)
}

// Pressure returns current global utilization, live/total (0 when the
// controller has no budget).
func (c *Controller) Pressure() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var live uint64
	for l := range c.leases {
		for _, as := range l.spaces {
			live += as.Mapped()
		}
	}
	if live > c.peakLive {
		c.peakLive = live
	}
	return c.pressureOf(live)
}

// LevelFor maps a utilization reading to its rung on the pressure ladder.
func (c *Controller) LevelFor(pressure float64) Level {
	switch {
	case pressure >= c.policy.ShedAt:
		return Shed
	case pressure >= c.policy.QueueAt:
		return Queue
	case pressure >= c.policy.DegradeAt:
		return Degrade
	}
	return Nominal
}

// Level samples current pressure and returns its ladder rung.
func (c *Controller) Level() Level { return c.LevelFor(c.Pressure()) }

// Total returns the global budget.
func (c *Controller) Total() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// SetTotal retargets the global budget mid-run (the chaos path: shrink and
// watch the ladder climb) and rebalances immediately.
func (c *Controller) SetTotal(total uint64) {
	c.mu.Lock()
	c.total = total
	c.rebalanceLocked()
	c.mu.Unlock()
}

// PeakLive returns the largest total live footprint observed at any
// rebalance or pressure sample — the "unconstrained peak" a calibrating
// caller halves to pick a squeeze budget.
func (c *Controller) PeakLive() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peakLive
}

// Denials returns the cumulative budget denials across all leases this
// controller has ever admitted.
func (c *Controller) Denials() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.denialsLocked()
}

func (c *Controller) denialsLocked() uint64 {
	d := c.releasedDenials
	for l := range c.leases {
		d += l.denials()
	}
	return d
}

// Tenants returns the number of currently admitted leases.
func (c *Controller) Tenants() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leases)
}

// Lease is one admitted tenant: the address spaces the controller governs
// plus the allocation profile that feeds its rate estimate. It implements
// sim.AllocRecorder via the embedded AllocProfile, so wiring it as a
// stream's recorder is all the integration a tenant needs.
type Lease struct {
	telemetry.AllocProfile
	c      *Controller
	name   string
	spaces []*mem.AddressSpace

	// Guarded by c.mu.
	lastBytes uint64
	rate      float64
	seeded    bool
	live      uint64
	weight    float64
	limit     uint64
	squeeze   float64
	released  bool
}

// pushLocked distributes a tenant limit across the lease's spaces: each
// space keeps what it has mapped plus an equal slice of the tenant's
// headroom; a deficit (squeeze below live) scales every space down
// proportionally. Budgets are pinned ≥ 1 byte because SetBudget(0) means
// unlimited. Caller holds c.mu.
func (l *Lease) pushLocked(limit uint64) {
	l.limit = limit
	n := uint64(len(l.spaces))
	if n == 0 {
		return
	}
	if limit >= l.live {
		per := (limit - l.live) / n
		for _, as := range l.spaces {
			as.SetBudget(maxU64(as.Mapped()+per, 1))
		}
		return
	}
	scale := float64(limit) / float64(maxU64(l.live, 1))
	for _, as := range l.spaces {
		as.SetBudget(maxU64(uint64(scale*float64(as.Mapped())), 1))
	}
}

// Release hands the lease's accounting back to the controller, lifts the
// pushed budgets (the tenant is done; any final frees shouldn't trip a
// stale limit), and rebalances the survivors. Idempotent.
func (l *Lease) Release() {
	c := l.c
	c.mu.Lock()
	if !l.released {
		l.released = true
		c.releasedDenials += l.denials()
		delete(c.leases, l)
		for _, as := range l.spaces {
			as.SetBudget(0)
		}
		c.rebalanceLocked()
	}
	c.mu.Unlock()
}

// Squeeze caps this tenant's limit at factor × its live bytes from the
// next rebalance on (factor < 1 forces denials on the tenant's next arena
// map — the dynamic-budget fault mode). A zero factor clears the cap.
func (l *Lease) Squeeze(factor float64) {
	c := l.c
	c.mu.Lock()
	l.squeeze = factor
	c.rebalanceLocked()
	c.mu.Unlock()
}

// Limit returns the tenant limit pushed at the last rebalance (0 until
// the controller has a budget).
func (l *Lease) Limit() uint64 {
	l.c.mu.Lock()
	defer l.c.mu.Unlock()
	return l.limit
}

// Rate returns the tenant's smoothed allocation rate in bytes/second.
func (l *Lease) Rate() float64 {
	l.c.mu.Lock()
	defer l.c.mu.Unlock()
	return l.rate
}

// Denials returns budget denials across the lease's spaces — nonzero
// means the controller constrained this tenant and its results reflect
// degraded (bailout/restart) execution.
func (l *Lease) Denials() uint64 {
	l.c.mu.Lock()
	defer l.c.mu.Unlock()
	return l.denials()
}

func (l *Lease) denials() uint64 {
	var d uint64
	for _, as := range l.spaces {
		d += as.BudgetDenials()
	}
	return d
}

// SqueezeSpaces shrinks each space's budget to factor × its current
// ceiling (the configured budget, or the mapped bytes when unbudgeted) —
// the controller-free path for the squeeze fault mode in one-shot runs.
// Results are deterministic: it reads only the spaces' own state.
func SqueezeSpaces(spaces []*mem.AddressSpace, factor float64) {
	for _, as := range spaces {
		base := as.Budget()
		if base == 0 {
			base = as.Mapped()
		}
		if base == 0 {
			continue
		}
		as.SetBudget(maxU64(uint64(factor*float64(base)), 1))
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
