package core_test

// The distance-plane twin of FuzzQueryEngineHeaders. It lives in the
// external test package because the seeds come from the real distance
// encoders (internal/schemes/distance imports core, so an in-package seed
// would be an import cycle).

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/schemes/distance"
)

// encodeFuzzInts packs ints as uvarints — the labelstore's wire shape for
// both bit lengths and permutation entries, so mutations explore realistic
// header corruptions.
func encodeFuzzInts(vals []int) []byte {
	out := make([]byte, 0, len(vals))
	var buf [binary.MaxVarintLen64]byte
	for _, v := range vals {
		out = append(out, buf[:binary.PutUvarint(buf[:], uint64(v))]...)
	}
	return out
}

// decodeFuzzInts is the inverse, deliberately unsanitized (bad values must
// be rejected by the engine, not the harness); only the count is capped.
func decodeFuzzInts(data []byte) []int {
	const maxFuzzLabels = 1 << 12
	var vals []int
	for len(data) > 0 && len(vals) < maxFuzzLabels {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		data = data[n:]
		vals = append(vals, int(v))
	}
	return vals
}

// FuzzDistEngineHeaders hammers NewDistEngineFromArena with raw slab bytes,
// header-declared bit lengths, a layout permutation, and engine parameters.
// The property: for ANY input, construction either errors or yields an
// engine whose distance queries never panic or read out of bounds, and
// whose answers are always >= -1 — build-time validation is the only line
// of defense, because the merge kernel reads the slab unchecked by design.
// Seeds are real pll and bounded labelings in both layouts, so the corpus
// starts valid and mutates outward.
func FuzzDistEngineHeaders(f *testing.F) {
	g, err := gen.ChungLuPowerLaw(150, 2.5, 2, 17)
	if err != nil {
		f.Fatal(err)
	}
	seed := func(encode func(lay core.Layout) (*core.DistArena, error), lay core.Layout) {
		a, err := encode(lay)
		if err != nil {
			f.Fatal(err)
		}
		order := make([]int, len(a.Order))
		for i, v := range a.Order {
			order[i] = int(v)
		}
		f.Add(a.Slab, encodeFuzzInts(a.BitLens), encodeFuzzInts(order),
			byte(a.Params.Kind), a.Params.DW, a.Params.F, a.Params.NFat)
	}
	pll := func(lay core.Layout) (*core.DistArena, error) {
		return distance.PLLScheme{}.EncodeArena(g, 1, lay)
	}
	bdist := func(lay core.Layout) (*core.DistArena, error) {
		return distance.Scheme{Alpha: 2.5, F: 3}.EncodeArena(g, 1, lay)
	}
	seed(pll, core.LayoutID)
	seed(pll, core.LayoutDegree)
	seed(bdist, core.LayoutID)
	seed(bdist, core.LayoutDegree)
	f.Add([]byte{}, []byte{}, []byte{}, byte(1), 4, 0, 0)
	f.Add(make([]byte, 16), encodeFuzzInts([]int{9, 64}), []byte{}, byte(2), 3, 2, 1)

	f.Fuzz(func(t *testing.T, slab, lensBytes, orderBytes []byte, kind byte, dw, fBound, nFat int) {
		bitLens := decodeFuzzInts(lensBytes)
		var order []int32
		if ints := decodeFuzzInts(orderBytes); len(ints) > 0 {
			order = make([]int32, len(ints))
			for i, v := range ints {
				order[i] = int32(v)
			}
		}
		p := core.DistParams{Kind: core.DistKind(kind), DW: dw, F: fBound, NFat: nFat}
		eng, err := core.NewDistEngineFromArena(slab, bitLens, order, p)
		if err != nil {
			return // rejected at build time: exactly what corrupt headers should get
		}
		n := eng.N()
		if n == 0 {
			if _, err := eng.Dist(0, 0); err == nil {
				t.Fatal("empty engine accepted a query")
			}
			return
		}
		// Probe a spread of pairs, including out-of-range ones; answers may be
		// garbage relative to any graph (the slab is noise), but every call
		// must return without panicking, errors must be range errors, and any
		// accepted answer must be a distance or the -1 sentinel.
		pairs := [][2]int{
			{0, 0}, {0, n - 1}, {n - 1, 0}, {n / 2, n / 3},
			{-1, 0}, {0, n}, {n, n},
		}
		for i := 0; i < n && i < 32; i++ {
			pairs = append(pairs, [2]int{i, (i * 7) % n})
		}
		for _, pr := range pairs {
			d, err := eng.Dist(pr[0], pr[1])
			if err == nil && d < -1 {
				t.Fatalf("dist(%d,%d) = %d", pr[0], pr[1], d)
			}
		}
		_, _ = eng.DistMany(pairs, nil)
	})
}
