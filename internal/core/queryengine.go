package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/bitstr"
)

// QueryEngine is the serving-path counterpart of FatThinDecoder: it is built
// once from a complete fat/thin labeling, pre-parses every label's header
// (fat bit, identifier, body length) into flat slices, and probes label
// bodies in a word-aligned byte slab (big-endian 64-bit words, the shared
// slab layout of bitstr). A query is then a handful of word-addressed probes
// — at most two word loads and a shift per probe, zero heap allocations, no
// Reader, no re-parsing. Labels are validated once at construction, so the
// hot path never errors on well-formed inputs.
//
// Arena-backed labelings (the encode pipeline's output, or a format-v2 label
// store) are adopted zero-copy: the engine points straight at the encoder's
// slab and only parses headers. A degree-ordered slab (LayoutDegree) is
// adopted just the same through NewQueryEngineFromPermutedArena — the meta
// table stays id-indexed, only the offsets follow the permutation, so every
// answer is bit-for-bit identical to the id-ordered layout. Labelings
// assembled label-by-label are relocated into a fresh slab, as before.
//
// A QueryEngine is immutable after construction and safe for concurrent use
// by any number of goroutines.
type QueryEngine struct {
	n int // number of vertices
	w int // identifier width: ceil(log2 n)
	// meta holds the flat pre-parsed headers, one 16-byte record per vertex
	// (four to a cache line), indexed by vertex id regardless of the slab's
	// physical layout.
	meta []vertexMeta
	// slab holds the label bodies: each vertex's body (neighbor ids or fat
	// vector) starts at bit offset meta[v].off. Probes via
	// bitstr.SlabReadBits never cross the end of the backing slice (see the
	// in-bounds argument there).
	slab []byte
	// metrics, when attached, receives per-call tallies (nil costs the hot
	// path a single predictable branch). It is the one mutable piece of an
	// otherwise immutable engine: attach before sharing the engine across
	// goroutines.
	metrics *EngineMetrics
	// resident, when non-nil, marks the engine as serving one shard of a
	// partitioned store (SetShard): bit v says vertex v's full label body is
	// present in the slab (owned, or fat — fat labels are replicated to every
	// shard). Queries resolvable only from a non-resident body return
	// ErrNotResident instead of probing a stripped stub. Like metrics it is
	// set before the engine is shared and read-only afterwards.
	resident []uint64
	shard    ShardMap
}

// AttachMetrics wires instrumentation into the engine's query paths. Must be
// called before the engine is shared (typically right after construction);
// passing nil detaches. The per-query cost is a stack-local tally flushed
// with O(1) atomic adds per call, preserving the 0 allocs/op guarantee.
func (e *QueryEngine) AttachMetrics(m *EngineMetrics) { e.metrics = m }

// vertexMeta is one label's pre-parsed header, packed into a single 16-byte
// record: the body's slab bit offset, and one word holding the identifier,
// the body count, and the fat flag —
//
//	word = id<<32 | cnt<<1 | fat
//
// cnt is the body size in body units: for thin labels the number of neighbor
// identifiers, for fat labels the vector length in bits; both are capped at
// 2^31-1 at build time, and identifiers fit 32 bits because the engine
// refuses id widths above 32 (2^32 vertices is far beyond maxLabels).
type vertexMeta struct {
	off  int64
	word uint64
}

func (m vertexMeta) id() uint64 { return m.word >> 32 }
func (m vertexMeta) cnt() int64 { return int64(m.word >> 1 & (1<<31 - 1)) }
func (m vertexMeta) fat() bool  { return m.word&1 != 0 }

// packMeta validates a label's body size and packs the header word.
func packMeta(fat bool, id uint64, body, w, v int) (uint64, error) {
	if body > 1<<31-1 {
		// cnt occupies 31 bits; a larger body would silently truncate and turn
		// the build-time bounds guarantees into query-time garbage.
		return 0, fmt.Errorf("%w: label %d: body of %d bits", ErrBadLabel, v, body)
	}
	cnt := 0
	switch {
	case fat:
		cnt = body
	case w == 0:
		cnt = 0
	default:
		if body%w != 0 {
			return 0, fmt.Errorf("%w: label %d: thin body %d bits not a multiple of id width %d",
				ErrBadLabel, v, body, w)
		}
		cnt = body / w
	}
	word := id<<32 | uint64(cnt)<<1
	if fat {
		word |= 1
	}
	return word, nil
}

// NewQueryEngine builds an engine over a labeling produced by any scheme
// using the fat/thin label layout (FatThinScheme, baseline.NeighborList).
// Labels are validated once here; malformed labels that FatThinDecoder
// would reject at query time are rejected at build time instead. An
// arena-backed labeling — id-ordered or degree-ordered — is adopted without
// relocating a single body bit.
func NewQueryEngine(lab *Labeling) (*QueryEngine, error) {
	if lab.arena != nil {
		bitLens := make([]int, len(lab.labels))
		for v, s := range lab.labels {
			bitLens[v] = s.Len()
		}
		return NewQueryEngineFromPermutedArena(lab.arena, bitLens, lab.order)
	}
	return NewQueryEngineFromLabels(lab.labels)
}

// NewQueryEngineFromArena builds an engine directly over a word-aligned
// label slab (label v at bit offset 64·Σ_{u<v} ceil(bitLens[u]/64)), e.g.
// the arena of a pipeline-built Labeling or a format-v2 label store. The
// slab is adopted zero-copy: construction parses and validates the n label
// headers but never moves a body.
func NewQueryEngineFromArena(slab []byte, bitLens []int) (*QueryEngine, error) {
	return NewQueryEngineFromPermutedArena(slab, bitLens, nil)
}

// NewQueryEngineFromPermutedArena builds an engine over a physically
// permuted slab: the label at slab rank r is label order[r], occupying
// bitLens[order[r]] bits (the LayoutDegree output of the encode pipeline,
// or a label store carrying a layout permutation). The meta table is still
// indexed by vertex id — reconstruction is a matter of walking the slab in
// rank order while scattering headers to meta[order[r]] — so queries are
// answered byte-for-byte identically to an id-ordered engine over the same
// labeling. order must be a permutation of 0..len(bitLens)-1; nil is the
// identity (NewQueryEngineFromArena).
func NewQueryEngineFromPermutedArena(slab []byte, bitLens []int, order []int32) (*QueryEngine, error) {
	n := len(bitLens)
	w := bitstr.WidthFor(uint64(n))
	if w > 32 {
		return nil, fmt.Errorf("%w: %d labels need id width %d, engine packs ids in 32 bits", ErrBadLabel, n, w)
	}
	if order != nil && len(order) != n {
		return nil, fmt.Errorf("%w: layout permutation of %d entries over %d labels", ErrBadLabel, len(order), n)
	}
	header := 1 + w
	e := &QueryEngine{n: n, w: w, meta: make([]vertexMeta, n), slab: slab}
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
				return nil, fmt.Errorf("%w: layout permutation entry %d = %d of %d labels", ErrBadLabel, r, order[r], n)
			}
			if seen[v>>6]&(1<<uint(v&63)) != 0 {
				return nil, fmt.Errorf("%w: layout permutation repeats label %d at rank %d", ErrBadLabel, v, r)
			}
			seen[v>>6] |= 1 << uint(v&63)
		}
		bits := bitLens[v]
		if bits < header {
			return nil, fmt.Errorf("%w: label %d has %d bits, header needs %d", ErrBadLabel, v, bits, header)
		}
		if bits > maxLabelBits {
			// Also keeps end below overflow for any label count that fits in
			// memory: untrusted bit lengths (fuzzed or corrupt headers) are
			// bounded before any offset arithmetic.
			return nil, fmt.Errorf("%w: label %d has %d bits", ErrBadLabel, v, bits)
		}
		end := off + int64(bitstr.SlabWords(bits))*bitstr.SlabWordBits
		if int(end>>3) > len(slab) {
			return nil, fmt.Errorf("%w: label %d ends at byte %d of a %d-byte slab", ErrBadLabel, v, end>>3, len(slab))
		}
		fat := bitstr.SlabReadBits(slab, off, 1) == 1
		var id uint64
		if w > 0 {
			id = bitstr.SlabReadBits(slab, off+1, w)
		}
		word, err := packMeta(fat, id, bits-header, w, v)
		if err != nil {
			return nil, err
		}
		e.meta[v] = vertexMeta{off: off + int64(header), word: word}
		off = end
	}
	return e, nil
}

// maxLabelBits caps a single label's declared bit length (matching the
// labelstore's cap): beyond it, offset arithmetic and the 31-bit body counts
// could overflow on attacker-controlled headers.
const maxLabelBits = 1 << 34

// NewQueryEngineFromLabels builds an engine over per-vertex labels from any
// source (e.g. a legacy label store), relocating the bodies into a fresh
// word-aligned slab. The identifier width is ceil(log2 len(labels)), exactly
// as for NewFatThinDecoder.
func NewQueryEngineFromLabels(labels []bitstr.String) (*QueryEngine, error) {
	n := len(labels)
	w := bitstr.WidthFor(uint64(n))
	if w > 32 {
		return nil, fmt.Errorf("%w: %d labels need id width %d, engine packs ids in 32 bits", ErrBadLabel, n, w)
	}
	header := 1 + w
	e := &QueryEngine{
		n:    n,
		w:    w,
		meta: make([]vertexMeta, n),
	}
	// Pass 1: validate headers and size the slab (bodies word-aligned).
	totalWords := 0
	for v, s := range labels {
		if s.Len() < header {
			return nil, fmt.Errorf("%w: label %d has %d bits, header needs %d", ErrBadLabel, v, s.Len(), header)
		}
		fat := s.MustPeekUint(0, 1) == 1
		word, err := packMeta(fat, s.MustPeekUint(1, w), s.Len()-header, w, v)
		if err != nil {
			return nil, err
		}
		e.meta[v] = vertexMeta{word: word}
		totalWords += bitstr.SlabWords(s.Len() - header)
	}
	// Pass 2: copy bodies into the slab, MSB-first within each big-endian
	// word to match the label bit order.
	e.slab = make([]byte, bitstr.SlabBytes(totalWords))
	word := 0
	for v, s := range labels {
		e.meta[v].off = int64(word) * bitstr.SlabWordBits
		body := s.Len() - header
		for i := 0; i < body; i += 64 {
			chunk := body - i
			if chunk > 64 {
				chunk = 64
			}
			binary.BigEndian.PutUint64(e.slab[word<<3:], s.MustPeekUint(header+i, chunk)<<(64-uint(chunk)))
			word++
		}
	}
	return e, nil
}

// N returns the number of vertices the engine serves.
func (e *QueryEngine) N() int { return e.n }

// Adjacent answers an adjacency query between vertices u and v. It is
// allocation-free and answers bit-for-bit identically to
// FatThinDecoder.Adjacent over the same labels.
func (e *QueryEngine) Adjacent(u, v int) (bool, error) {
	var t QueryTally
	ok, err := e.AdjacentTallied(u, v, &t)
	if m := e.metrics; m != nil {
		m.flush(&t)
	}
	return ok, err
}

// AdjacentTallied is the shared probe path: it answers one query and tallies
// which decode branch resolved it into t — plain stack increments that the
// batch paths (and external frame loops like adjserve) flush to atomics once
// per span via FlushTally. It is the call to use when streaming single
// queries at batch rates: same probes as Adjacent, no per-query metric cost.
func (e *QueryEngine) AdjacentTallied(u, v int, t *QueryTally) (bool, error) {
	if uint(u) >= uint(e.n) || uint(v) >= uint(e.n) {
		return false, fmt.Errorf("%w: (%d,%d) of %d", ErrVertexRange, u, v, e.n)
	}
	t.queries++
	if e.resident != nil {
		// Sharded engine: pick a resident body (see probeSharded). The nil
		// check is the only cost an unsharded engine pays.
		return e.probeSharded(u, v, t)
	}
	mu, mv := e.meta[u], e.meta[v]
	if mu.id() == mv.id() {
		// Same vertex: never self-adjacent in a simple graph.
		t.self++
		return false, nil
	}
	switch {
	case !mu.fat():
		t.thin++
		return e.thinProbe(mu, mv.id()), nil
	case !mv.fat():
		t.thin++
		return e.thinProbe(mv, mu.id()), nil
	default:
		// Both fat: bit mv.id of u's adjacency vector.
		t.fat++
		if mv.id() >= uint64(mu.cnt()) {
			return false, fmt.Errorf("%w: fat id %d outside vector of %d bits", ErrBadLabel, mv.id(), mu.cnt())
		}
		return bitstr.SlabReadBits(e.slab, mu.off+int64(mv.id()), 1) == 1, nil
	}
}

// thinProbe binary-searches thin vertex u's sorted neighbor-id list for
// target — the O(log n) decode of Theorems 3/4, with each probe at most two
// word loads at a computed slab offset. Bounds were validated at build
// time.
func (e *QueryEngine) thinProbe(m vertexMeta, target uint64) bool {
	w := e.w
	if w == 0 {
		return false
	}
	slab, base := e.slab, m.off
	lo, hi := 0, int(m.cnt())-1
	for lo <= hi {
		mid := int(uint(lo+hi) >> 1)
		got := bitstr.SlabReadBits(slab, base+int64(mid*w), w)
		switch {
		case got == target:
			return true
		case got < target:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return false
}

// AdjacentMany answers a batch of queries, appending one result per pair to
// out and returning the extended slice. Passing an out slice with capacity
// for len(pairs) results makes the whole batch allocation-free. It stops at
// the first failing query.
func (e *QueryEngine) AdjacentMany(pairs [][2]int, out []bool) ([]bool, error) {
	var t QueryTally
	for _, p := range pairs {
		ok, err := e.AdjacentTallied(p[0], p[1], &t)
		if err != nil {
			e.flushBatch(&t, len(pairs))
			return out, fmt.Errorf("core: query (%d,%d): %w", p[0], p[1], err)
		}
		out = append(out, ok)
	}
	e.flushBatch(&t, len(pairs))
	return out, nil
}

// growBools extends out by extra entries, reusing capacity when it can.
func growBools(out []bool, extra int) []bool {
	if need := len(out) + extra; cap(out) >= need {
		return out[:need]
	}
	grown := make([]bool, len(out)+extra)
	copy(grown, out)
	return grown
}

// flushBatch charges one batch call's tally: O(1) atomic adds however many
// pairs the batch held.
func (e *QueryEngine) flushBatch(t *QueryTally, pairs int) {
	if m := e.metrics; m != nil {
		m.flush(t)
		m.Batches.Inc()
		m.BatchPairs.Observe(int64(pairs))
	}
}

// FlushTally charges a caller-managed tally span (see QueryTally) to the
// attached metrics and zeroes the tally. pairs > 0 additionally records one
// batch of that many pairs, making an externally-streamed frame
// indistinguishable from an AdjacentMany call in the exposition; pass 0 for
// a span that ended early (the queries already probed still count). A no-op
// apart from the zeroing when no metrics are attached.
func (e *QueryEngine) FlushTally(t *QueryTally, pairs int) {
	if m := e.metrics; m != nil {
		m.flush(t)
		if pairs > 0 {
			m.Batches.Inc()
			m.BatchPairs.Observe(int64(pairs))
		}
	}
	*t = QueryTally{}
}

// ObserveProbe charges one served frame's engine-probe wall time to the
// attached metrics (see EngineMetrics.ObserveProbe); a no-op without
// metrics. The serving loop calls it once per successful query frame.
func (e *QueryEngine) ObserveProbe(ns int64, traceID uint64) {
	if m := e.metrics; m != nil {
		m.ObserveProbe(ns, traceID)
	}
}

// AdjacentManyParallel shards a batch across workers goroutines (workers
// <= 0 selects GOMAXPROCS) and answers each shard with the allocation-free
// single-query path. Results are returned in pair order. The engine itself
// is read-only, so shards share it without synchronization; the only
// coordination is the final join.
func (e *QueryEngine) AdjacentManyParallel(pairs [][2]int, out []bool, workers int) ([]bool, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers <= 1 {
		return e.AdjacentMany(pairs, out)
	}
	start := len(out)
	out = growBools(out, len(pairs))
	res := out[start:]
	errs := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (len(pairs) + workers - 1) / workers
	for wi := 0; wi < workers; wi++ {
		lo := wi * chunk
		if lo >= len(pairs) {
			break
		}
		hi := lo + chunk
		if hi > len(pairs) {
			hi = len(pairs)
		}
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			// Worker-local tally, flushed once per shard: the atomics merge
			// shards without any cross-worker coordination in the loop.
			var t QueryTally
			for i := lo; i < hi; i++ {
				ok, err := e.AdjacentTallied(pairs[i][0], pairs[i][1], &t)
				if err != nil {
					errs[wi] = fmt.Errorf("core: query (%d,%d): %w", pairs[i][0], pairs[i][1], err)
					break
				}
				res[i] = ok
			}
			if m := e.metrics; m != nil {
				m.flush(&t)
			}
		}(wi, lo, hi)
	}
	wg.Wait()
	if m := e.metrics; m != nil {
		m.Batches.Inc()
		m.BatchPairs.Observe(int64(len(pairs)))
	}
	for _, err := range errs {
		if err != nil {
			return out[:start], err
		}
	}
	return out, nil
}
