// Package workload synthesizes the allocation behaviour of the paper's
// seven PHP workloads (Table 2) plus the Ruby on Rails application of the
// §4.4 study.
//
// The paper characterizes each workload by its allocator traffic — Table 3
// gives malloc/free/realloc calls per transaction and the mean allocation
// size — and those numbers parameterize our generators directly, so running
// a generator against an allocator regenerates Table 3. Everything else
// (object lifetimes, application instructions, data touched) is synthetic
// but shaped by what the paper reports: more than 80 % of objects die by
// per-object free during the transaction, the remainder at freeAll; PHP
// application code dwarfs the allocator (Figure 6's "others" share); and
// SPECweb2005 does comparatively little allocation but streams static file
// content, which is why it is insensitive to the allocator.
package workload

import (
	"fmt"

	"webmm/internal/mem"
)

// Profile describes one workload's per-transaction behaviour at full
// (paper) scale.
type Profile struct {
	// Name and Desc echo the paper's Table 2.
	Name    string
	Version string
	Desc    string

	// Table 3 statistics (per transaction).
	Mallocs  int
	Frees    int
	Reallocs int
	AvgSize  float64

	// AppInstr is the application (non-allocator) instruction count per
	// transaction, calibrated so the default allocator on one Xeon core
	// reproduces the paper's Table 4 absolute throughput.
	AppInstr uint64

	// AppDataBytes sizes the per-process interpreter/script/cache data
	// region the application reads while executing.
	AppDataBytes uint64

	// OutputKB is the response payload written per transaction (HTML or
	// file content). SPECweb's large value models its static-file
	// serving share.
	OutputKB int

	// PaperXeon1Core is the paper's Table 4 throughput for the default
	// allocator with one Xeon core, kept for calibration checks.
	PaperXeon1Core float64
}

// FreeRatio returns the fraction of objects freed per-object during the
// transaction (the paper reports 72.7%-92.1%, 84.7% on average).
func (p Profile) FreeRatio() float64 {
	if p.Mallocs == 0 {
		return 0
	}
	return float64(p.Frees) / float64(p.Mallocs)
}

// Profiles returns the paper's PHP workloads in Table 2 order.
func Profiles() []Profile {
	return []Profile{
		MediaWikiRO(), MediaWikiRW(), SugarCRM(), EZPublish(),
		PhpBB(), CakePHP(), SPECweb(),
	}
}

// byName is every profile ByName resolves: the PHP workloads and Rails.
var byName = append(Profiles(), Rails())

// ByName returns the named profile (case-sensitive, as printed in reports).
func ByName(name string) (Profile, error) {
	for _, p := range byName {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// MediaWikiRO is the MediaWiki read-only scenario: reading randomly
// selected articles from a 1,000-article wiki backed by memcached.
func MediaWikiRO() Profile {
	return Profile{
		Name: "MediaWiki(ro)", Version: "1.9.3",
		Desc:    "wiki server, read-only article views",
		Mallocs: 151770, Frees: 129141, Reallocs: 6147, AvgSize: 62.1,
		AppInstr:       52_000_000,
		AppDataBytes:   8 * mem.MiB,
		OutputKB:       64,
		PaperXeon1Core: 25.3,
	}
}

// MediaWikiRW is the MediaWiki read/write scenario: 20% of transactions
// open an article for editing and save it.
func MediaWikiRW() Profile {
	return Profile{
		Name: "MediaWiki(rw)", Version: "1.9.3",
		Desc:    "wiki server, 20% of transactions edit articles",
		Mallocs: 404983, Frees: 354775, Reallocs: 22371, AvgSize: 66.7,
		AppInstr:       112_000_000,
		AppDataBytes:   8 * mem.MiB,
		OutputKB:       72,
		PaperXeon1Core: 11.7,
	}
}

// SugarCRM is the customer-relationship-management system: AJAX requests
// for customer data against 512 user accounts.
func SugarCRM() Profile {
	return Profile{
		Name: "SugarCRM", Version: "4.5.1",
		Desc:    "CRM system, AJAX customer lookups",
		Mallocs: 276853, Frees: 225800, Reallocs: 3120, AvgSize: 49.3,
		AppInstr:       66_000_000,
		AppDataBytes:   6 * mem.MiB,
		OutputKB:       32,
		PaperXeon1Core: 19.4,
	}
}

// EZPublish is the content-management system reading blog articles.
func EZPublish() Profile {
	return Profile{
		Name: "eZPublish", Version: "4.0.0",
		Desc:    "CMS, random article reads with sessions",
		Mallocs: 123019, Frees: 109856, Reallocs: 4646, AvgSize: 78.6,
		AppInstr:       46_000_000,
		AppDataBytes:   8 * mem.MiB,
		OutputKB:       56,
		PaperXeon1Core: 28.5,
	}
}

// PhpBB is the forum reading randomly selected posts.
func PhpBB() Profile {
	return Profile{
		Name: "phpBB", Version: "3.0.1",
		Desc:    "web forum, reading posts",
		Mallocs: 46965, Frees: 43267, Reallocs: 1003, AvgSize: 56.3,
		AppInstr:       20_500_000,
		AppDataBytes:   4 * mem.MiB,
		OutputKB:       40,
		PaperXeon1Core: 62.6,
	}
}

// CakePHP is the telephone-directory application built on the framework:
// list, select, update.
func CakePHP() Profile {
	return Profile{
		Name: "CakePHP", Version: "1.2.0.7296",
		Desc:    "framework app: list/select/update records",
		Mallocs: 99195, Frees: 82645, Reallocs: 3574, AvgSize: 68.6,
		AppInstr:       46_000_000,
		AppDataBytes:   4 * mem.MiB,
		OutputKB:       24,
		PaperXeon1Core: 28.3,
	}
}

// SPECweb is SPECweb2005's eCommerce scenario: little PHP allocation, much
// static content.
func SPECweb() Profile {
	return Profile{
		Name: "SPECweb2005", Version: "1.10",
		Desc:    "industry benchmark, eCommerce scenario",
		Mallocs: 3277, Frees: 2383, Reallocs: 106, AvgSize: 175.6,
		AppInstr:       6_500_000,
		AppDataBytes:   2 * mem.MiB,
		OutputKB:       128,
		PaperXeon1Core: 188.6,
	}
}

// Rails is the Ruby on Rails telephone-directory application of §4.4,
// built to mirror the CakePHP scenario. Ruby allocates more aggressively
// than PHP per unit of work and its runtime is slower.
func Rails() Profile {
	return Profile{
		Name: "RubyOnRails", Version: "1.2.3",
		Desc:    "Rails telephone directory (Ruby study)",
		Mallocs: 120000, Frees: 99600, Reallocs: 2400, AvgSize: 58.0,
		AppInstr:       58_000_000,
		AppDataBytes:   10 * mem.MiB,
		OutputKB:       24,
		PaperXeon1Core: 0, // the paper reports only 8-core bars for Ruby
	}
}
