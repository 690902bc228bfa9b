package labelstore

import (
	"bytes"
	"maps"
	"slices"
	"strconv"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/schemes/distance"
)

// fuzzSeedStores serializes one small store of every kind the writer
// produces: v1 (label by label), v2 id-ordered, v2 degree-ordered, one shard
// of a 3-shard split, and pll and bdist distance stores.
func fuzzSeedStores(tb testing.TB) map[string][]byte {
	tb.Helper()
	g, err := gen.ChungLuPowerLaw(40, 2.5, 2, 3)
	if err != nil {
		tb.Fatal(err)
	}
	params := map[string]string{"n": strconv.Itoa(g.N())}
	encode := func(lay core.Layout) *core.Labeling {
		s := core.NewPowerLawScheme(2.5)
		s.SetLayout(lay)
		lab, err := s.Encode(g)
		if err != nil {
			tb.Fatal(err)
		}
		return lab
	}
	bitLens := func(lab *core.Labeling) ([]bitstr.String, []int) {
		labels := make([]bitstr.String, g.N())
		lens := make([]int, g.N())
		for v := range labels {
			l, err := lab.Label(v)
			if err != nil {
				tb.Fatal(err)
			}
			labels[v], lens[v] = l, l.Len()
		}
		return labels, lens
	}
	files := map[string]func() (*File, error){}
	idLab := encode(core.LayoutID)
	labels, lens := bitLens(idLab)
	files["v1"] = func() (*File, error) { return &File{Scheme: idLab.Scheme(), Params: params, Labels: labels}, nil }
	files["v2"] = func() (*File, error) {
		slab, _ := idLab.Arena()
		return NewArenaFile(idLab.Scheme(), params, slab, lens)
	}
	degLab := encode(core.LayoutDegree)
	_, degLens := bitLens(degLab)
	degSlab, order, _ := degLab.ArenaLayout()
	files["degree"] = func() (*File, error) {
		return NewPermutedArenaFile(degLab.Scheme(), params, degSlab, degLens, order)
	}
	files["shard1of3"] = func() (*File, error) {
		arenas, err := core.ShardLabelArenas(degSlab, degLens, order, 3, core.ShardRange)
		if err != nil {
			return nil, err
		}
		m := core.ShardMap{Count: 3, Index: 1, Fn: core.ShardRange}
		return NewShardArenaFile(degLab.Scheme(), params, arenas[1].Slab, arenas[1].BitLens, order, m)
	}
	files["dist-pll"] = func() (*File, error) {
		a, err := distance.PLLScheme{}.EncodeArena(g, 0, core.LayoutDegree)
		if err != nil {
			return nil, err
		}
		return NewDistArenaFile("pll", params, a)
	}
	files["dist-bdist"] = func() (*File, error) {
		a, err := distance.Scheme{Alpha: 2.5, F: 3}.EncodeArena(g, 0, core.LayoutID)
		if err != nil {
			return nil, err
		}
		return NewDistArenaFile("bdist", params, a)
	}
	out := make(map[string][]byte, len(files))
	for name, build := range files {
		f, err := build()
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, f); err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// FuzzReadBytes drives arbitrary bytes through the package's single parser
// (Read and Open both end in ReadBytes). It must never panic; whatever it
// accepts must be fully backed by the input (a blob shorter than the
// declared bit lengths is rejected, so every strict prefix of the canonical
// re-encoding fails); and Write followed by ReadBytes must give back the
// same scheme, params, labels, layout order, shard map and distance params.
func FuzzReadBytes(f *testing.F) {
	seeds := fuzzSeedStores(f)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	slices.Sort(names) // stable seed#N numbering
	for _, name := range names {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBytes(data)
		if err != nil {
			return
		}
		// Every accepted label lies inside the input.
		total := 0
		for _, l := range got.Labels {
			total += (l.Len() + 7) / 8
		}
		if total > len(data) {
			t.Fatalf("accepted %d label bytes from a %d-byte input", total, len(data))
		}
		if slab, lens, _, ok := got.ArenaLayout(); ok {
			need := 0
			for _, bits := range lens {
				need += bitstr.SlabWords(bits) * 8
			}
			if len(slab) != need || need > len(data) {
				t.Fatalf("arena of %d bytes for lengths needing %d, input %d", len(slab), need, len(data))
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, got); err != nil {
			t.Fatalf("Write of an accepted store: %v", err)
		}
		out := buf.Bytes()
		back, err := ReadBytes(out)
		if err != nil {
			t.Fatalf("re-read of Write output: %v", err)
		}
		if back.Scheme != got.Scheme || !maps.Equal(back.Params, got.Params) {
			t.Fatalf("header changed: %q %v → %q %v", got.Scheme, got.Params, back.Scheme, back.Params)
		}
		if back.N() != got.N() {
			t.Fatalf("label count %d → %d", got.N(), back.N())
		}
		for v := range got.Labels {
			if !back.Labels[v].Equal(got.Labels[v]) {
				t.Fatalf("label %d changed in the round trip", v)
			}
		}
		if !slices.Equal(back.LayoutOrder(), got.LayoutOrder()) {
			t.Fatal("layout order changed in the round trip")
		}
		bm, bok := back.Shard()
		gm, gok := got.Shard()
		if bm != gm || bok != gok {
			t.Fatalf("shard map %v/%v → %v/%v", gm, gok, bm, bok)
		}
		bd, bok := back.DistParams()
		gd, gok := got.DistParams()
		if bd != gd || bok != gok {
			t.Fatalf("distance params %+v/%v → %+v/%v", gd, gok, bd, bok)
		}
		for _, cut := range []int{len(out) - 1, len(out) / 2} {
			if _, err := ReadBytes(out[:cut]); err == nil {
				t.Fatalf("accepted a %d-byte prefix of a %d-byte store", cut, len(out))
			}
		}
	})
}
