package memsys

import (
	"fmt"
	"math"
	"strings"
)

// PolicyName names a registered memory-scheduling policy. Typed like
// apprt's allocator names so call sites cannot silently pass arbitrary
// strings where a registry key is meant.
type PolicyName string

// The registered policies. All four are the classics the MemSchedSim
// lineage compares; each is reduced here to its ordering rule over a bank's
// pending window (see DESIGN.md §10 for the simplifications).
const (
	// PolicyFRFCFS is first-ready, first-come-first-served: row hits
	// first, then oldest. The de-facto hardware baseline.
	PolicyFRFCFS PolicyName = "frfcfs"
	// PolicyATLAS serves the core with the least attained service first
	// (long-term fairness via service accounting).
	PolicyATLAS PolicyName = "atlas"
	// PolicyTCM clusters cores into latency-sensitive vs
	// bandwidth-intensive by demand and prioritizes the former.
	PolicyTCM PolicyName = "tcm"
	// PolicyBLISS blacklists cores that streak (4 consecutive services)
	// and deprioritizes them until a periodic clear.
	PolicyBLISS PolicyName = "bliss"
)

// DefaultPolicy is the policy a DRAM memory system uses when none is named.
const DefaultPolicy = PolicyFRFCFS

// PolicyDesc describes one registered scheduling policy; the table drives
// CLI usage, -list output and the EXPERIMENTS.md policy table, the same way
// the allocator and experiment registries drive theirs.
type PolicyDesc struct {
	Name PolicyName
	// Ref cites the paper the policy comes from.
	Ref string
	// Doc is the one-line ordering rule.
	Doc string
}

// policyRegistry is the authoritative policy table. Order is presentation
// order everywhere (usage, -list, docs, experiment sweeps).
var policyRegistry = []PolicyDesc{
	{
		Name: PolicyFRFCFS,
		Ref:  "Rixner+ ISCA'00",
		Doc:  "first-ready FCFS: open-row hits first, then oldest request",
	},
	{
		Name: PolicyATLAS,
		Ref:  "Kim+ HPCA'10",
		Doc:  "least-attained-service core first; ties broken FR-FCFS",
	},
	{
		Name: PolicyTCM,
		Ref:  "Kim+ MICRO'10",
		Doc:  "latency-sensitive cluster (low demand) over bandwidth-intensive",
	},
	{
		Name: PolicyBLISS,
		Ref:  "Subramanian+ ICCD'14",
		Doc:  "blacklist cores after 4 consecutive services; periodic clear",
	},
}

// Policies returns the registered policy descriptors in presentation order.
// The slice is a copy; callers may not mutate the registry.
func Policies() []PolicyDesc {
	out := make([]PolicyDesc, len(policyRegistry))
	copy(out, policyRegistry)
	return out
}

// PolicyNames returns the registered policy names in presentation order.
func PolicyNames() []PolicyName {
	out := make([]PolicyName, len(policyRegistry))
	for i, d := range policyRegistry {
		out[i] = d.Name
	}
	return out
}

// PolicyByName resolves a policy name, with the valid candidates in the
// error so a typo at any entry point (CLI flag, serve JSON, Study option)
// names its own fix.
func PolicyByName(name PolicyName) (PolicyDesc, error) {
	for _, d := range policyRegistry {
		if d.Name == name {
			return d, nil
		}
	}
	return PolicyDesc{}, fmt.Errorf("memsys: unknown scheduling policy %q (valid: %v)", name, PolicyNames())
}

// UsagePolicies renders the policy table for CLI -h output, one line per
// policy, matching the experiment registry's usage format.
func UsagePolicies() string {
	var b strings.Builder
	for _, d := range policyRegistry {
		fmt.Fprintf(&b, "  %-8s %-22s %s\n", d.Name, d.Ref, d.Doc)
	}
	return b.String()
}

// PoliciesMarkdown renders the policy table as a Markdown table for
// EXPERIMENTS.md; a sync test pins the committed file to this output.
func PoliciesMarkdown() string {
	var b strings.Builder
	b.WriteString("| Policy | Reference | Ordering rule |\n")
	b.WriteString("|--------|-----------|---------------|\n")
	for _, d := range policyRegistry {
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", d.Name, d.Ref, d.Doc)
	}
	return b.String()
}

// scheduler orders one bank's window. eligible returns the slots the
// policy serves first: a subset of pending, the bitmask of the window's
// unserved slots, where coreMask[c] holds every slot of the window issued
// by core c (served ones included). Within that subset the replay serves
// open-row hits first and then the oldest slot, so each policy is its class
// rule alone. served notifies the scheduler of each service so it can
// maintain per-core state, and reports whether that changed the marks the
// class rule reads: the replay reuses the last eligible set, narrowed to
// what is still pending, until served reports a change or nothing of the
// set is pending. Implementations must be deterministic.
type scheduler interface {
	eligible(pending uint64, coreMask []uint64) uint64
	served(core int32, units float64) (marksChanged bool)
}

// newScheduler builds the named policy's scheduler for nCores cores. The
// caller has already validated the name via PolicyByName.
func newScheduler(name PolicyName, nCores int) scheduler {
	switch name {
	case PolicyFRFCFS:
		return &frfcfs{}
	case PolicyATLAS:
		return &atlas{attained: make([]float64, nCores)}
	case PolicyTCM:
		return &tcm{epochReqs: make([]uint64, nCores), bwHeavy: make([]bool, nCores)}
	case PolicyBLISS:
		return &bliss{blacklisted: make([]bool, nCores)}
	default:
		panic(fmt.Sprintf("memsys: unregistered policy %q", name))
	}
}

// unmarkedFirst is the class rule TCM and BLISS share: the pending slots
// of cores not marked, or all of pending when only marked cores have any.
func unmarkedFirst(pending uint64, coreMask []uint64, marked []bool) uint64 {
	var m uint64
	for c, slots := range coreMask {
		if !marked[c] {
			m |= slots
		}
	}
	if m &= pending; m != 0 {
		return m
	}
	return pending
}

// frfcfs: row hits before row misses, oldest first within each class —
// every pending slot is eligible.
type frfcfs struct{}

func (f *frfcfs) eligible(pending uint64, coreMask []uint64) uint64 { return pending }

func (f *frfcfs) served(core int32, units float64) bool { return false }

// atlas: the cores tied at the least attained service are eligible; within
// them, FR-FCFS rules apply. (The real ATLAS ages service over long quanta
// across all controllers; a single controller over one measured run
// reduces that to monotone per-core accounting.)
type atlas struct {
	attained []float64
}

func (a *atlas) eligible(pending uint64, coreMask []uint64) uint64 {
	var best uint64
	least := math.Inf(1)
	for c, slots := range coreMask {
		if slots &= pending; slots == 0 {
			continue
		}
		switch s := a.attained[c]; {
		case s < least:
			least, best = s, slots
		case s == least:
			best |= slots
		}
	}
	return best
}

// served always reports a change: every service moves attained service,
// so ATLAS recomputes its class on every pick.
func (a *atlas) served(core int32, units float64) bool {
	a.attained[core] += units
	return true
}

// tcmEpoch is the service count between TCM re-clusterings.
const tcmEpoch = 256

// tcm: every epoch, cores whose demand exceeded the fair share are marked
// bandwidth-intensive; latency-sensitive cores then beat them regardless of
// row state. (The real TCM also shuffles rank among the bandwidth cluster to
// spread slowdown; one rank order per epoch is deterministic and keeps the
// clustering effect, which is what the solver can observe.)
type tcm struct {
	epochReqs []uint64
	bwHeavy   []bool
	services  uint64
}

func (t *tcm) eligible(pending uint64, coreMask []uint64) uint64 {
	return unmarkedFirst(pending, coreMask, t.bwHeavy)
}

func (t *tcm) served(core int32, units float64) bool {
	t.epochReqs[core]++
	t.services++
	if t.services%tcmEpoch != 0 {
		return false
	}
	// Re-cluster: above fair share of the epoch's traffic = bandwidth-heavy.
	var total uint64
	active := 0
	for _, n := range t.epochReqs {
		total += n
		if n > 0 {
			active++
		}
	}
	if active == 0 {
		return false
	}
	fair := total / uint64(active)
	for c, n := range t.epochReqs {
		t.bwHeavy[c] = n > fair
		t.epochReqs[c] = 0
	}
	return true
}

// blissStreak is the consecutive-service count that blacklists a core;
// blissClear is the service interval at which the blacklist resets. Both
// are the shape (not the cycle-accurate values) of the BLISS paper.
const (
	blissStreak = 4
	blissClear  = 512
)

// bliss: non-blacklisted cores beat blacklisted ones; FR-FCFS within each
// group. A core that gets blissStreak consecutive services is blacklisted
// until the periodic clear.
type bliss struct {
	blacklisted []bool
	streakCore  int32
	streak      int
	services    uint64
}

func (b *bliss) eligible(pending uint64, coreMask []uint64) uint64 {
	return unmarkedFirst(pending, coreMask, b.blacklisted)
}

func (b *bliss) served(core int32, units float64) (marksChanged bool) {
	if core == b.streakCore {
		b.streak++
		if b.streak >= blissStreak && !b.blacklisted[core] {
			b.blacklisted[core], marksChanged = true, true
		}
	} else {
		b.streakCore, b.streak = core, 1
	}
	b.services++
	if b.services%blissClear == 0 {
		for c := range b.blacklisted {
			b.blacklisted[c] = false
		}
		marksChanged = true
	}
	return marksChanged
}
