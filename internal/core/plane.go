package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/bitstr"
)

// plane is the state both query planes share: the vertex count, the packed
// per-vertex header table, the word-aligned label slab, and the attached
// metrics. QueryEngine and DistEngine embed it and differ only in their
// kernel (Probe); the drivers below run either kernel.
type plane struct {
	n int
	// meta holds the flat pre-parsed headers, one 16-byte record per vertex
	// (four to a cache line), indexed by vertex id regardless of the slab's
	// physical layout.
	meta []vertexMeta
	// slab holds the label bodies; meta[v].off is the bit offset of v's body.
	slab []byte
	// metrics, when attached, receives per-call tallies (nil costs the hot
	// path a single predictable branch). It is the one mutable piece of an
	// otherwise immutable engine: attach before sharing the engine across
	// goroutines.
	metrics *EngineMetrics
}

// N returns the number of vertices the engine serves.
func (p *plane) N() int { return p.n }

// AttachMetrics wires instrumentation into the engine's query paths. Must be
// called before the engine is shared (typically right after construction);
// passing nil detaches. The per-query cost is a stack-local tally flushed
// with O(1) atomic adds per call, preserving the 0 allocs/op guarantee.
// Distance engines tally self for equal identifiers, fat when a bounded
// query had a fat endpoint, and thin for thin-thin bounded pairs and every
// PLL merge.
func (p *plane) AttachMetrics(m *EngineMetrics) { p.metrics = m }

// Metrics returns the attached metrics (nil when none), for frame loops that
// drive the kernel themselves and flush with EngineMetrics.Flush.
func (p *plane) Metrics() *EngineMetrics { return p.metrics }

// walkArena visits the labels of a word-aligned slab in slab order: the
// label at rank r is label order[r] (nil order is the identity), occupying
// bitLens[order[r]] bits from the word after its predecessor. It validates
// the permutation and that every label lies inside the slab, then calls
// visit with the vertex, its slab bit offset and its bit length — the
// construction walk both engines share.
func walkArena(slab []byte, bitLens []int, order []int32, visit func(v int, off, bits int64) error) error {
	n := len(bitLens)
	if order != nil && len(order) != n {
		return fmt.Errorf("%w: layout permutation of %d entries over %d labels", ErrBadLabel, len(order), n)
	}
	var seen []uint64
	if order != nil {
		seen = make([]uint64, (n+63)>>6)
	}
	var off int64
	for r := 0; r < n; r++ {
		v := r
		if order != nil {
			v = int(order[r])
			if v < 0 || v >= n {
				return fmt.Errorf("%w: layout permutation entry %d = %d of %d labels", ErrBadLabel, r, order[r], n)
			}
			if seen[v>>6]&(1<<uint(v&63)) != 0 {
				return fmt.Errorf("%w: layout permutation repeats label %d at rank %d", ErrBadLabel, v, r)
			}
			seen[v>>6] |= 1 << uint(v&63)
		}
		bits := bitLens[v]
		if bits < 0 || bits > maxLabelBits {
			// Also keeps end below overflow for any label count that fits in
			// memory: untrusted bit lengths (fuzzed or corrupt headers) are
			// bounded before any offset arithmetic.
			return fmt.Errorf("%w: label %d has %d bits", ErrBadLabel, v, bits)
		}
		end := off + int64(bitstr.SlabWords(bits))*bitstr.SlabWordBits
		if int(end>>3) > len(slab) {
			return fmt.Errorf("%w: label %d ends at byte %d of a %d-byte slab", ErrBadLabel, v, end>>3, len(slab))
		}
		if err := visit(v, off, int64(bits)); err != nil {
			return err
		}
		off = end
	}
	return nil
}

// probeOne answers a single query and charges it without recording a batch.
func probeOne[A any, K Kernel[A]](k K, m *EngineMetrics, u, v int) (A, error) {
	a, b, err := k.Probe(u, v)
	if m != nil {
		var t QueryTally
		t.Add(b)
		m.Flush(&t, 0)
	}
	return a, err
}

// probeMany is the batch driver: it answers pairs in order, appending one
// answer per pair to out, and flushes the branch tally to m once. It stops at
// the first failing query. Passing an out slice with capacity for len(pairs)
// answers makes the whole batch allocation-free.
func probeMany[A any, K Kernel[A]](k K, m *EngineMetrics, pairs [][2]int, out []A) ([]A, error) {
	out, t, err := probeSpan(k, pairs, out)
	m.Flush(&t, len(pairs))
	return out, err
}

// probeSpan is the probe loop both drivers run: it appends pairs' answers to
// out, stopping at the first failing query, and returns the branch tally by
// value (a tally pointer passed into a generic function escapes to the heap).
func probeSpan[A any, K Kernel[A]](k K, pairs [][2]int, out []A) ([]A, QueryTally, error) {
	var t QueryTally
	for _, p := range pairs {
		a, b, err := k.Probe(p[0], p[1])
		t.Add(b)
		if err != nil {
			return out, t, fmt.Errorf("core: query (%d,%d): %w", p[0], p[1], err)
		}
		out = append(out, a)
	}
	return out, t, nil
}

// probeManyParallel is the parallel driver: it shards a batch across workers
// goroutines (workers <= 0 selects GOMAXPROCS), each answering its contiguous
// slice with probeSpan. Answers land in pair order. The engines are
// read-only, so workers share them without synchronization; the only
// coordination is the final join.
func probeManyParallel[A any, K Kernel[A]](k K, m *EngineMetrics, pairs [][2]int, out []A, workers int) ([]A, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers <= 1 {
		return probeMany(k, m, pairs, out)
	}
	start := len(out)
	out = slices.Grow(out, len(pairs))[:start+len(pairs)]
	res := out[start:]
	errs := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (len(pairs) + workers - 1) / workers
	for wi := 0; wi < workers; wi++ {
		lo := wi * chunk
		if lo >= len(pairs) {
			break
		}
		hi := min(lo+chunk, len(pairs))
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			// res[lo:lo] has capacity through hi: the answers land in place.
			_, t, err := probeSpan(k, pairs[lo:hi], res[lo:lo])
			errs[wi] = err
			m.Flush(&t, 0)
		}(wi, lo, hi)
	}
	wg.Wait()
	var none QueryTally // the workers charged the queries; record the one batch
	m.Flush(&none, len(pairs))
	for _, err := range errs {
		if err != nil {
			return out[:start], err
		}
	}
	return out, nil
}
