package core

import (
	"fmt"
	"math/bits"

	"repro/internal/bitstr"
	"repro/internal/graph"
)

// DistEngine is the distance-plane counterpart of QueryEngine: built once
// over a DistArena (or a format-v2 distance label store), it pre-parses
// every label's header into the same packed 16-byte vertexMeta records and
// answers Dist(u, v) straight from the word-aligned slab — no Reader, no
// re-parsing, zero heap allocations on the hot path.
//
// Two kernels, selected by the arena's DistKind:
//
//   - DistPLL: a merge-intersection min-sum scan over the two sorted hub
//     lists, decoding δ-gap hub ranks inline (one guarded 64-bit peek per
//     entry) and fixed-width distances beside them. Answers match
//     distance.PLLDecoder.Dist bit for bit; unreachable pairs return -1
//     (graph.Unreachable).
//   - DistBounded: Lemma 7's decode — the minimum over fat-hub relays
//     (both fixed-width fat tables walked in lockstep with the legacy
//     early-out) plus, for thin-thin pairs, a binary search of each sorted
//     thin list. Distances beyond the bound f return -1 (distance.Beyond,
//     numerically the same sentinel).
//
// Every label is fully validated at construction — entry lists must stay in
// bounds, strictly sorted, and tile their label exactly — so the hot path
// never errors and never reads outside the slab on any engine that
// construction accepted (FuzzDistEngineHeaders leans on exactly this).
// Like QueryEngine, a DistEngine is immutable after construction and safe
// for concurrent use; metrics attach before sharing.
type DistEngine struct {
	// plane's meta reuses QueryEngine's packed header record: off is the bit
	// offset of the label body (pll: the first entry; bdist: the fat table),
	// and word packs id<<32 | cnt<<1 | fat with cnt the entry count (pll: hub
	// entries; bdist: thin-list entries).
	plane
	kind     DistKind
	w        int // identifier width (pll: min 1; bdist: exact ceil(log2 n))
	wCnt     int // pll entry-count width
	dw       int // distance field width
	f        int // bdist bound
	nFat     int // bdist fat-table width
	slabBits int64
}

// NewDistEngine adopts a pipeline-encoded DistArena zero-copy.
func NewDistEngine(a *DistArena) (*DistEngine, error) {
	return NewDistEngineFromArena(a.Slab, a.BitLens, a.Order, a.Params)
}

// NewDistEngineFromArena builds an engine over a distance label slab (label
// at rank r holds vertex order[r], nil order is the identity — the same
// permuted-arena contract as NewQueryEngineFromPermutedArena). The slab is
// adopted zero-copy; construction parses and validates every label, so a
// corrupt or truncated store errors here rather than at query time.
func NewDistEngineFromArena(slab []byte, bitLens []int, order []int32, p DistParams) (*DistEngine, error) {
	n := len(bitLens)
	if n == 0 {
		return nil, fmt.Errorf("%w: distance engine over zero labels", ErrBadLabel)
	}
	if p.DW < 1 || p.DW > 32 {
		return nil, fmt.Errorf("%w: distance width %d (want 1..32)", ErrBadLabel, p.DW)
	}
	e := &DistEngine{plane: plane{n: n, meta: make([]vertexMeta, n), slab: slab},
		kind: p.Kind, dw: p.DW, slabBits: int64(len(slab)) * 8}
	switch p.Kind {
	case DistPLL:
		e.w, e.wCnt, _ = pllWidths(n, 0)
	case DistBounded:
		e.w = bitstr.WidthFor(uint64(n))
		if p.F < 1 {
			return nil, fmt.Errorf("%w: distance bound %d (want >= 1)", ErrBadLabel, p.F)
		}
		if want := bitstr.WidthFor(uint64(p.F) + 2); want != p.DW {
			return nil, fmt.Errorf("%w: bound %d needs distance width %d, params carry %d", ErrBadLabel, p.F, want, p.DW)
		}
		if p.NFat < 0 || p.NFat > n {
			return nil, fmt.Errorf("%w: fat table of %d hubs over %d vertices", ErrBadLabel, p.NFat, n)
		}
		e.f, e.nFat = p.F, p.NFat
	default:
		return nil, fmt.Errorf("%w: unknown distance scheme kind %d", ErrBadLabel, uint8(p.Kind))
	}
	if e.w > 32 {
		return nil, fmt.Errorf("%w: %d labels need id width %d, engine packs ids in 32 bits", ErrBadLabel, n, e.w)
	}
	validate := e.validateBounded
	if e.kind == DistPLL {
		validate = e.validatePLL
	}
	if err := walkArena(slab, bitLens, order, validate); err != nil {
		return nil, err
	}
	return e, nil
}

// validatePLL parses label v at slab bit off spanning lbits bits, walking
// every δ-coded entry: ranks must be strictly increasing vertex ranks, the
// entries must tile the label exactly, and the count must fit the packed
// meta word. On success the header lands in e.meta[v].
func (e *DistEngine) validatePLL(v int, off, lbits int64) error {
	header := int64(e.w + e.wCnt)
	if lbits < header {
		return fmt.Errorf("%w: pll label %d has %d bits, header needs %d", ErrBadLabel, v, lbits, header)
	}
	id := bitstr.SlabReadBits(e.slab, off, e.w)
	cnt := bitstr.SlabReadBits(e.slab, off+int64(e.w), e.wCnt)
	// A well-formed entry is at least 1 (delta0 of gap 0) + dw bits; a count
	// beyond that bound cannot tile the label and would make the walk below
	// quadratic on corrupt headers.
	if cnt > uint64(lbits-header)/uint64(1+e.dw) || cnt > 1<<31-1 {
		return fmt.Errorf("%w: pll label %d declares %d entries in %d body bits", ErrBadLabel, v, cnt, lbits-header)
	}
	pos, end := off+header, off+lbits
	prev := uint64(0)
	for i := uint64(0); i < cnt; i++ {
		gap, wd, ok := slabReadDeltaChecked(e.slab, pos, end)
		if !ok {
			return fmt.Errorf("%w: pll label %d entry %d: bad rank gap code", ErrBadLabel, v, i)
		}
		rank := prev + gap
		if i == 0 {
			rank = gap
		}
		if rank >= uint64(e.n) || (i > 0 && gap == 0) {
			return fmt.Errorf("%w: pll label %d entry %d: rank %d of %d", ErrBadLabel, v, i, rank, e.n)
		}
		prev = rank
		pos += wd
		if pos+int64(e.dw) > end {
			return fmt.Errorf("%w: pll label %d entry %d: distance past label end", ErrBadLabel, v, i)
		}
		pos += int64(e.dw)
	}
	if pos != end {
		return fmt.Errorf("%w: pll label %d: %d trailing bits after %d entries", ErrBadLabel, v, end-pos, cnt)
	}
	e.meta[v] = vertexMeta{off: off + header, word: id<<32 | cnt<<1}
	return nil
}

// validateBounded checks a Lemma 7 label: exact fat length, thin list
// tiling, and strictly ascending in-range thin ids (the binary search's
// precondition — and what makes it answer identically to the legacy linear
// scan).
func (e *DistEngine) validateBounded(v int, off, lbits int64) error {
	header := int64(1 + e.w)
	listOff := header + int64(e.nFat*e.dw)
	if lbits < listOff {
		return fmt.Errorf("%w: bdist label %d has %d bits, fat table needs %d", ErrBadLabel, v, lbits, listOff)
	}
	fat := bitstr.SlabReadBits(e.slab, off, 1) == 1
	var id uint64
	if e.w > 0 {
		id = bitstr.SlabReadBits(e.slab, off+1, e.w)
	}
	cnt := uint64(0)
	if fat {
		if lbits != listOff {
			return fmt.Errorf("%w: bdist fat label %d of %d bits, want %d", ErrBadLabel, v, lbits, listOff)
		}
	} else {
		body := lbits - listOff
		stride := int64(e.w + e.dw)
		if body%stride != 0 {
			return fmt.Errorf("%w: bdist label %d thin list of %d bits", ErrBadLabel, v, body)
		}
		cnt = uint64(body / stride)
		if cnt > 1<<31-1 {
			return fmt.Errorf("%w: bdist label %d thin list of %d entries", ErrBadLabel, v, cnt)
		}
		prev := int64(-1)
		for i := int64(0); i < int64(cnt); i++ {
			tid := int64(0)
			if e.w > 0 {
				tid = int64(bitstr.SlabReadBits(e.slab, off+listOff+i*stride, e.w))
			}
			if tid <= prev || tid >= int64(e.n) {
				return fmt.Errorf("%w: bdist label %d thin entry %d: id %d after %d of %d", ErrBadLabel, v, i, tid, prev, e.n)
			}
			prev = tid
		}
	}
	word := id<<32 | cnt<<1
	if fat {
		word |= 1
	}
	e.meta[v] = vertexMeta{off: off + header, word: word}
	return nil
}

// slabReadDeltaChecked decodes one Elias delta0 code at bit pos, refusing to
// read at or past bit end: it returns the decoded value, the code width in
// bits, and ok=false for any code that is malformed, oversized (values are
// vertex ranks, so 32 bits at most), or runs past end. Used only at
// construction; the hot path decodes validated codes without checks.
func slabReadDeltaChecked(slab []byte, pos, end int64) (val uint64, width int64, ok bool) {
	avail := end - pos
	if avail <= 0 {
		return 0, 0, false
	}
	peek := avail
	if peek > 64 {
		peek = 64
	}
	buf := bitstr.SlabReadBits(slab, pos, int(peek))
	if peek < 64 {
		buf <<= uint(64 - peek)
	}
	z := bits.LeadingZeros64(buf)
	// gamma(nb): z zeros then nb in z+1 bits; values fit 33 bits (rank+1 for
	// ranks below 2^32), so nb <= 33 and z <= 5.
	if z > 5 || int64(2*z+1) > avail {
		return 0, 0, false
	}
	nb := int(buf << uint(z) >> uint(64-(z+1)))
	if nb < 1 || nb > 33 {
		return 0, 0, false
	}
	width = int64(2*z + 1 + nb - 1)
	if width > avail {
		return 0, 0, false
	}
	v := uint64(1) << uint(nb-1)
	if nb > 1 {
		v |= buf << uint(2*z+1) >> uint(64-(nb-1))
	}
	return v - 1, width, true
}

// pllEntry decodes the validated entry at bit off: the δ-coded rank gap and
// the fixed-width distance beside it, returning the entry's total width.
// One guarded 64-bit peek covers the whole gap code (validated codes are at
// most 43 bits); the clamp only fires within the slab's last word.
func (e *DistEngine) pllEntry(off int64) (gap, dist uint64, width int64) {
	peek := e.slabBits - off
	if peek > 64 {
		peek = 64
	}
	buf := bitstr.SlabReadBits(e.slab, off, int(peek))
	if peek < 64 {
		buf <<= uint(64 - peek)
	}
	z := bits.LeadingZeros64(buf)
	nb := int(buf << uint(z) >> uint(64-(z+1)))
	v := uint64(1) << uint(nb-1)
	if nb > 1 {
		v |= buf << uint(2*z+1) >> uint(64-(nb-1))
	}
	wd := int64(2*z + nb)
	dist = bitstr.SlabReadBits(e.slab, off+wd, e.dw)
	return v - 1, dist, wd + int64(e.dw)
}

// Kind returns the engine's distance scheme kind.
func (e *DistEngine) Kind() DistKind { return e.kind }

// F returns the distance bound of a DistBounded engine (0 for DistPLL).
func (e *DistEngine) F() int { return e.f }

// Dist answers a distance query between vertices u and v: the exact hop
// distance, or -1 when unreachable (DistPLL) or beyond the bound f
// (DistBounded) — the same sentinel both legacy decoders return. It is
// allocation-free and answers bit-for-bit identically to
// distance.PLLDecoder.Dist / distance.Decoder.Dist over the same labels.
func (e *DistEngine) Dist(u, v int) (int, error) {
	return probeOne(e, e.metrics, u, v)
}

// Probe is the distance plane's kernel: one query, plus the branch that
// resolved it (see Kernel and AttachMetrics).
func (e *DistEngine) Probe(u, v int) (int, Branch, error) {
	if uint(u) >= uint(e.n) || uint(v) >= uint(e.n) {
		return 0, BranchRange, fmt.Errorf("%w: (%d,%d) of %d", ErrVertexRange, u, v, e.n)
	}
	mu, mv := e.meta[u], e.meta[v]
	switch {
	case mu.id() == mv.id():
		return 0, BranchSelf, nil
	case e.kind == DistPLL:
		return e.distPLL(mu, mv), BranchThin, nil
	case mu.fat() || mv.fat():
		return e.distBounded(mu, mv), BranchFat, nil
	default:
		return e.distBounded(mu, mv), BranchThin, nil
	}
}

// distPLL merges the two sorted hub lists and returns the minimum summed
// distance — the exact loop of distance.PLLDecoder.Dist, reading δ-gap
// ranks and fixed-width distances straight from the slab.
func (e *DistEngine) distPLL(mu, mv vertexMeta) int {
	cntA, cntB := int(mu.cnt()), int(mv.cnt())
	offA, offB := mu.off, mv.off
	const inf = 1 << 30
	best := inf
	var rankA, rankB, distA, distB uint64
	haveA, haveB := false, false
	i, j := 0, 0
	for i < cntA || j < cntB {
		if !haveA && i < cntA {
			gap, d, wd := e.pllEntry(offA)
			if i == 0 {
				rankA = gap
			} else {
				rankA += gap
			}
			distA, offA = d, offA+wd
			haveA = true
		}
		if !haveB && j < cntB {
			gap, d, wd := e.pllEntry(offB)
			if j == 0 {
				rankB = gap
			} else {
				rankB += gap
			}
			distB, offB = d, offB+wd
			haveB = true
		}
		switch {
		case !haveA:
			j = cntB // A exhausted: no more common hubs
		case !haveB:
			i = cntA
		case rankA == rankB:
			if s := int(distA + distB); s < best {
				best = s
			}
			haveA, haveB = false, false
			i++
			j++
		case rankA < rankB:
			haveA = false
			i++
		default:
			haveB = false
			j++
		}
	}
	if best == inf {
		return graph.Unreachable
	}
	return best
}

// distBounded is Lemma 7's decode: the minimum over fat-hub relays, then
// for thin-thin pairs the two sorted thin lists — binary-searched here, with
// answers identical to the legacy linear scan because construction verified
// strict id order.
func (e *DistEngine) distBounded(mu, mv vertexMeta) int {
	best := e.f + 1
	offA, offB := mu.off, mv.off
	dw := e.dw
	for i := 0; i < e.nFat; i++ {
		da := int(bitstr.SlabReadBits(e.slab, offA+int64(i*dw), dw))
		if da >= best {
			continue
		}
		db := int(bitstr.SlabReadBits(e.slab, offB+int64(i*dw), dw))
		if s := da + db; s < best {
			best = s
		}
	}
	if !mu.fat() && !mv.fat() {
		if d, ok := e.thinDist(mu, mv.id()); ok && d < best {
			best = d
		}
		if best > 0 {
			if d, ok := e.thinDist(mv, mu.id()); ok && d < best {
				best = d
			}
		}
	}
	if best > e.f {
		return graph.Unreachable // distance.Beyond: the same -1 sentinel
	}
	return best
}

// thinDist binary-searches m's sorted thin list for target and returns its
// stored distance.
func (e *DistEngine) thinDist(m vertexMeta, target uint64) (int, bool) {
	w := e.w
	if w == 0 {
		return 0, false
	}
	stride := int64(w + e.dw)
	base := m.off + int64(e.nFat*e.dw)
	slab := e.slab
	lo, hi := int64(0), m.cnt()-1
	for lo <= hi {
		mid := (lo + hi) >> 1
		got := bitstr.SlabReadBits(slab, base+mid*stride, w)
		switch {
		case got == target:
			return int(bitstr.SlabReadBits(slab, base+mid*stride+int64(w), e.dw)), true
		case got < target:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return 0, false
}

// DistMany answers a batch of queries, appending one distance per pair to
// out and returning the extended slice; capacity for len(pairs) results
// makes the batch allocation-free. It stops at the first failing query.
func (e *DistEngine) DistMany(pairs [][2]int, out []int) ([]int, error) {
	return probeMany(e, e.metrics, pairs, out)
}

// DistManyParallel shards a batch across workers goroutines (<= 0 selects
// GOMAXPROCS), answering each shard with the allocation-free single-query
// path; results are in pair order.
func (e *DistEngine) DistManyParallel(pairs [][2]int, out []int, workers int) ([]int, error) {
	return probeManyParallel(e, e.metrics, pairs, out, workers)
}
