package alloctest

import (
	"fmt"

	"webmm/internal/heap"
)

// RunTrace interprets data as a deterministic allocation trace against a
// heap.Checked wrapper of the allocator mk builds, mixing legitimate calls,
// deliberate misuse (double free, invalid free, realloc misuse), and
// injected mapping failures. A shadow model tracks what the wrapper should
// have recorded; any divergence — a missed misuse, a phantom error, a
// duplicate live address — is returned as an error. Panics are not
// recovered: under `go test -fuzz` a panicking allocator is itself the
// finding.
//
// The trace format is byte-oriented and total: every input decodes to some
// trace, so fuzzers can mutate freely. Each step reads an opcode byte
// (interpreted modulo the opcode count) and its operands from the stream;
// a truncated stream ends the trace.
func RunTrace(mk Maker, data []byte) (*heap.Checked, error) {
	env := NewEnv(11)
	c := heap.NewChecked(mk(env))
	c.CheckLeaks = false

	type obj struct {
		p    heap.Ptr
		size uint64
	}
	var live []obj       // wrapper-visible live objects, in birth order
	var freed []heap.Ptr // freed per-object and not yet reused
	expect := map[heap.ErrKind]uint64{}
	expectTotal := uint64(0)
	misuse := func(k heap.ErrKind) {
		expect[k]++
		expectTotal++
	}
	// shadowMalloc reconciles the shadow model with one successful
	// allocation: the address is live, and if it recycles a freed
	// address that address is no longer "freed".
	shadowMalloc := func(p heap.Ptr, size uint64) error {
		for _, o := range live {
			if o.p == p {
				return fmt.Errorf("malloc returned live address %#x", uint64(p))
			}
		}
		for i, q := range freed {
			if q == p {
				freed = append(freed[:i], freed[i+1:]...)
				break
			}
		}
		live = append(live, obj{p, size})
		return nil
	}

	pos := 0
	next := func() (byte, bool) {
		if pos >= len(data) {
			return 0, false
		}
		b := data[pos]
		pos++
		return b, true
	}
	invalid := heap.Ptr(1 << 42) // beyond the test address space: never allocated

	for {
		op, ok := next()
		if !ok {
			break
		}
		switch op % 10 {
		case 0, 1: // small malloc
			b, _ := next()
			size := uint64(b) + 1
			if p := c.Malloc(size); p != 0 {
				if err := shadowMalloc(p, size); err != nil {
					return c, err
				}
			}
		case 2: // large malloc (up to ~16 MiB: crosses every size-class regime)
			b1, _ := next()
			b2, _ := next()
			size := (uint64(b1)<<8|uint64(b2))*256 + 1
			if p := c.Malloc(size); p != 0 {
				if err := shadowMalloc(p, size); err != nil {
					return c, err
				}
			}
		case 3: // free a live object (clean)
			if len(live) == 0 {
				continue
			}
			b, _ := next()
			i := int(b) % len(live)
			o := live[i]
			c.Free(o.p)
			if c.SupportsFree() {
				// The wrapper retires the object; without per-object
				// free the call is a forwarded no-op and the object
				// stays live in the wrapper's books.
				live = append(live[:i], live[i+1:]...)
				freed = append(freed, o.p)
			}
		case 4: // double free (misuse when the heap has per-object free)
			if len(freed) == 0 || !c.SupportsFree() {
				continue
			}
			b, _ := next()
			c.Free(freed[int(b)%len(freed)])
			misuse(heap.ErrDoubleFree)
		case 5: // free of a never-allocated pointer
			if !c.SupportsFree() {
				continue
			}
			invalid += 64
			c.Free(invalid)
			misuse(heap.ErrInvalidFree)
		case 6: // realloc a live object with the correct oldSize (clean)
			if len(live) == 0 {
				continue
			}
			b, _ := next()
			nb, _ := next()
			i := int(b) % len(live)
			o := live[i]
			newSize := uint64(nb)*16 + 1
			before := len(c.Errors())
			np := c.Realloc(o.p, o.size, newSize)
			if len(c.Errors()) != before {
				return c, fmt.Errorf("clean realloc(%#x, %d, %d) recorded %v",
					uint64(o.p), o.size, newSize, c.Errors()[len(c.Errors())-1])
			}
			if np == 0 {
				continue // OOM: the old object stays valid
			}
			if np != o.p {
				live = append(live[:i], live[i+1:]...)
				if c.SupportsFree() {
					freed = append(freed, o.p)
				}
				if err := shadowMalloc(np, newSize); err != nil {
					return c, err
				}
			} else {
				live[i].size = newSize
			}
		case 7: // realloc with a contradicting oldSize (misuse)
			if len(live) == 0 {
				continue
			}
			b, _ := next()
			o := live[int(b)%len(live)]
			if np := c.Realloc(o.p, o.size+1, o.size); np != 0 {
				return c, fmt.Errorf("realloc with wrong oldSize succeeded: %#x", uint64(np))
			}
			misuse(heap.ErrInvalidRealloc)
		case 8: // bulk free
			if !c.SupportsFreeAll() {
				continue
			}
			c.FreeAll()
			live, freed = nil, nil
		case 9: // arm a one-shot mapping failure: the next Map OOMs
			fired := false
			env.AS.SetFaultInjector(func(uint64) bool {
				if fired {
					return false
				}
				fired = true
				return true
			})
		}
		if len(live) > 4096 {
			// Bound wrapper bookkeeping on adversarial all-malloc inputs.
			if c.SupportsFreeAll() {
				c.FreeAll()
				live, freed = nil, nil
			} else {
				for _, o := range live {
					c.Free(o.p)
					freed = append(freed, o.p)
				}
				live = nil
			}
		}
	}

	// The wrapper must have seen exactly the misuse we committed: every
	// error accounted for (recorded or dropped past the cap), and no
	// phantom detections on the clean calls.
	recorded := uint64(len(c.Errors())) + c.Dropped()
	if recorded != expectTotal {
		return c, fmt.Errorf("recorded %d misuses (dropped %d), expected %d",
			len(c.Errors()), c.Dropped(), expectTotal)
	}
	if c.Dropped() == 0 {
		got := map[heap.ErrKind]uint64{}
		for _, e := range c.Errors() {
			got[e.Kind]++
		}
		for k, want := range expect {
			if got[k] != want {
				return c, fmt.Errorf("misuse kind %v: recorded %d, expected %d", k, got[k], want)
			}
		}
	}
	if c.SupportsFree() && c.LiveObjects() != len(live) {
		return c, fmt.Errorf("wrapper tracks %d live objects, shadow has %d",
			c.LiveObjects(), len(live))
	}
	return c, nil
}
