// Package apprt models the application runtimes that host the allocators:
// the PHP runtime (one transaction per request, freeAll at request end —
// §4.2) and the Ruby runtime (no freeAll, long-lived processes with
// periodic restarts — §4.4). Each runtime implements machine.Driver for one
// runtime process pinned to one hardware thread.
package apprt

import (
	"fmt"

	"webmm/internal/alloc/dlm"
	"webmm/internal/alloc/hoard"
	"webmm/internal/alloc/obstack"
	"webmm/internal/alloc/reap"
	"webmm/internal/alloc/region"
	"webmm/internal/alloc/tcm"
	"webmm/internal/alloc/zend"
	"webmm/internal/core"
	"webmm/internal/heap"
	"webmm/internal/sim"
)

// AllocOptions configure allocator construction.
type AllocOptions struct {
	// LargePages enables DDmalloc's large-page heap (§3.3 optimization
	// 2; the paper enables it on Niagara, disables it on Xeon).
	LargePages bool
	// PID is the process id used for DDmalloc's metadata displacement
	// (§3.3 optimization 1).
	PID int
}

// AllocatorDesc describes one allocator of the study: its report name (used
// by the CLI, the figures, and the public API), which study it belongs to,
// a one-line description, the static facts callers need before any
// allocator exists, and its constructor.
type AllocatorDesc struct {
	Name string
	// Study is "php" for the PHP comparison (Figures 1, 5-9), "ruby" for
	// the Rails comparison (Figures 10-12), or "extra" for allocators
	// available to cell runs but not part of a headline figure.
	Study string
	Doc   string
	// CodeSize is the allocator's simulated code footprint (its package's
	// CodeSize constant), which sizes a machine's code layout.
	CodeSize uint64
	// FreeAll reports whether the allocator supports bulk freeAll, which
	// the PHP runtime requires.
	FreeAll bool
	New     func(env *sim.Env, opts AllocOptions) heap.Allocator
}

// allocators is the single source of truth for allocator selection,
// PHP-study allocators first (report order).
var allocators = []AllocatorDesc{
	{
		Name: "default", Study: "php", CodeSize: zend.CodeSize, FreeAll: true,
		Doc: "PHP's Zend-style per-request allocator (free lists, freeAll at request end)",
		New: func(env *sim.Env, _ AllocOptions) heap.Allocator { return zend.New(env) },
	},
	{
		Name: "region", Study: "php", CodeSize: region.CodeSize, FreeAll: true,
		Doc: "region-based bump allocation; memory reclaimed wholesale per request",
		New: func(env *sim.Env, _ AllocOptions) heap.Allocator { return region.New(env) },
	},
	{
		Name: "ddmalloc", Study: "php", CodeSize: core.CodeSize, FreeAll: true,
		Doc: "the paper's DDmalloc: size-class free lists with the locality optimizations of §3.3",
		New: func(env *sim.Env, opts AllocOptions) heap.Allocator {
			ddOpts := core.DefaultOptions()
			ddOpts.LargePages = opts.LargePages
			ddOpts.PID = opts.PID
			return core.New(env, ddOpts)
		},
	},
	{
		Name: "obstack", Study: "extra", CodeSize: obstack.CodeSize, FreeAll: true,
		Doc: "GNU obstack-style stack allocator (LIFO frees only)",
		New: func(env *sim.Env, _ AllocOptions) heap.Allocator { return obstack.New(env, 0) },
	},
	{
		Name: "reap", Study: "extra", CodeSize: reap.CodeSize, FreeAll: true,
		Doc: "Reap-style hybrid of region allocation with individual frees",
		New: func(env *sim.Env, _ AllocOptions) heap.Allocator { return reap.New(env) },
	},
	{
		Name: "glibc", Study: "ruby", CodeSize: dlm.CodeSize,
		Doc: "dlmalloc-style general-purpose allocator (glibc's malloc lineage)",
		New: func(env *sim.Env, _ AllocOptions) heap.Allocator { return dlm.New(env) },
	},
	{
		Name: "hoard", Study: "ruby", CodeSize: hoard.CodeSize,
		Doc: "Hoard-style allocator with per-processor heaps",
		New: func(env *sim.Env, _ AllocOptions) heap.Allocator { return hoard.New(env) },
	},
	{
		Name: "tcmalloc", Study: "ruby", CodeSize: tcm.CodeSize,
		Doc: "thread-caching malloc with central spans and per-thread free lists",
		New: func(env *sim.Env, _ AllocOptions) heap.Allocator { return tcm.New(env) },
	},
}

// Allocators returns the allocator descriptors in report order. The slice is
// a copy; the registry itself is immutable.
func Allocators() []AllocatorDesc {
	out := make([]AllocatorDesc, len(allocators))
	copy(out, allocators)
	return out
}

// AllocatorByName looks an allocator up by report name.
func AllocatorByName(name string) (AllocatorDesc, error) {
	for _, d := range allocators {
		if d.Name == name {
			return d, nil
		}
	}
	return AllocatorDesc{}, fmt.Errorf("apprt: unknown allocator %q (valid: %v)", name, AllocatorNames())
}

// AllocatorNames lists the valid names for NewAllocator, PHP-study
// allocators first.
func AllocatorNames() []string {
	out := make([]string, len(allocators))
	for i, d := range allocators {
		out[i] = d.Name
	}
	return out
}

// AllocCodeSize returns the simulated code footprint of the named
// allocator, used to build the machine's code layout before any runtime
// exists. It is a registry lookup: nothing is constructed.
func AllocCodeSize(name string) (uint64, error) {
	d, err := AllocatorByName(name)
	if err != nil {
		return 0, err
	}
	return d.CodeSize, nil
}

// RuntimeAllocator resolves the named allocator for a PHP (ruby false) or
// Ruby runtime from registry facts alone, rejecting a pairing the runtime
// cannot run: the PHP runtime reclaims every request with freeAll, and the
// Ruby runtime runs only the Ruby study's allocators. NewPHP, NewRuby and
// the server's single-cell admission all apply it.
func RuntimeAllocator(name string, ruby bool) (AllocatorDesc, error) {
	d, err := AllocatorByName(name)
	if err != nil {
		return AllocatorDesc{}, err
	}
	if ruby && !isSupportedRubyAlloc(name) {
		return AllocatorDesc{}, fmt.Errorf("apprt: allocator %q is not in the Ruby study", name)
	}
	if !ruby && !d.FreeAll {
		return AllocatorDesc{}, fmt.Errorf("apprt: allocator %q lacks freeAll; the PHP runtime requires bulk free", name)
	}
	return d, nil
}

// NewAllocator constructs an allocator by report name.
func NewAllocator(name string, env *sim.Env, opts AllocOptions) (heap.Allocator, error) {
	d, err := AllocatorByName(name)
	if err != nil {
		return nil, err
	}
	return d.New(env, opts), nil
}
