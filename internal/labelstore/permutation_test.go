package labelstore

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// permutedStore encodes g degree-ordered and returns the store file plus the
// labeling it came from.
func permutedStore(t *testing.T, g *graph.Graph) (*File, *core.Labeling) {
	t.Helper()
	s := core.NewPowerLawScheme(2.5)
	s.SetLayout(core.LayoutDegree)
	lab, err := s.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, order, ok := lab.ArenaLayout()
	if !ok {
		t.Fatal("pipeline labeling is not arena-backed")
	}
	if order == nil {
		t.Fatal("degree layout produced no permutation")
	}
	bitLens := make([]int, g.N())
	for v := range bitLens {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		bitLens[v] = l.Len()
	}
	f, err := NewPermutedArenaFile(lab.Scheme(), map[string]string{"n": strconv.Itoa(g.N())}, slab, bitLens, order)
	if err != nil {
		t.Fatal(err)
	}
	return f, lab
}

// TestPermutedRoundTrip checks that a degree-ordered store survives both Read
// and the zero-copy ReadBytes with its permutation intact: every label
// read back is byte-equal to the logical label, and the reconstructed engine
// answers exactly the graph's adjacency.
func TestPermutedRoundTrip(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(300, 2.5, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	f, lab := permutedStore(t, g)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, r := range []struct {
		name string
		load func() (*File, error)
	}{
		{"Read", func() (*File, error) { return Read(bytes.NewReader(data)) }},
		{"ReadBytes", func() (*File, error) { return ReadBytes(data) }},
	} {
		t.Run(r.name, func(t *testing.T) {
			got, err := r.load()
			if err != nil {
				t.Fatal(err)
			}
			if got.LayoutOrder() == nil {
				t.Fatal("loaded store lost its layout permutation")
			}
			for v := 0; v < g.N(); v++ {
				want, err := lab.Label(v)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Labels[v].Equal(want) {
					t.Fatalf("label %d differs after round trip", v)
				}
			}
			slab, bitLens, order, ok := got.ArenaLayout()
			if !ok {
				t.Fatal("loaded store is not arena-backed")
			}
			eng, err := core.NewQueryEngineFromPermutedArena(slab, bitLens, order)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < g.N(); u++ {
				for _, v := range g.Neighbors(u) {
					adj, err := eng.Adjacent(u, int(v))
					if err != nil {
						t.Fatal(err)
					}
					if !adj {
						t.Fatalf("edge (%d,%d) answered false", u, v)
					}
				}
			}
		})
	}
}

// TestPermutedStoreArenaHidden: the plain Arena accessor must refuse to hand
// out a permuted slab — a caller unaware of the permutation would misread
// every label offset.
func TestPermutedStoreArenaHidden(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(120, 2.5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := permutedStore(t, g)
	if _, _, ok := f.Arena(); ok {
		t.Fatal("Arena() handed out a permuted slab")
	}
	if _, _, _, ok := f.ArenaLayout(); !ok {
		t.Fatal("ArenaLayout() should expose the permuted slab")
	}
}

// permBlockRange locates the [start, end) byte range of the permutation
// block inside a serialized format-v2 store image by walking the header
// fields in front of it.
func permBlockRange(t *testing.T, data []byte, n int) (int, int) {
	t.Helper()
	off := 5 // magic + version
	uv := func(what string) uint64 {
		v, k := binary.Uvarint(data[off:])
		if k <= 0 {
			t.Fatalf("parsing %s at offset %d", what, off)
		}
		off += k
		return v
	}
	skipString := func(what string) { off += int(uv(what)) }
	skipString("scheme")
	nParams := uv("param count")
	for i := uint64(0); i < nParams; i++ {
		skipString("param key")
		skipString("param value")
	}
	if got := uv("label count"); int(got) != n {
		t.Fatalf("label count %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		uv("label length")
	}
	start := off
	for i := 0; i < n; i++ {
		uv("perm entry")
	}
	return start, off
}

// TestPermutationCorruptionErrors is the load-time safety property of the
// permutation block: any truncation inside it, and any single corrupted byte
// of it, must make both readers fail — a damaged permutation may never load
// and silently mis-answer. (A corrupted entry either breaks the uvarint
// framing, leaves the permutation's range, or collides with another entry;
// all three are checked at load.)
func TestPermutationCorruptionErrors(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(60, 2.5, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := permutedStore(t, g)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	start, end := permBlockRange(t, data, g.N())
	if start >= end {
		t.Fatalf("degenerate perm block [%d,%d)", start, end)
	}
	// Sanity: the intact image still parses.
	if _, err := ReadBytes(data); err != nil {
		t.Fatal(err)
	}
	for cut := start; cut < end; cut++ {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("Read accepted a store truncated at byte %d (perm block [%d,%d))", cut, start, end)
		}
		if _, err := ReadBytes(data[:cut]); err == nil {
			t.Fatalf("ReadBytes accepted a store truncated at byte %d", cut)
		}
	}
	for i := start; i < end; i++ {
		bad := bytes.Clone(data)
		bad[i] ^= 0xFF
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("Read accepted a store with perm byte %d corrupted", i)
		}
		if _, err := ReadBytes(bad); err == nil {
			t.Fatalf("ReadBytes accepted a store with perm byte %d corrupted", i)
		}
	}
}

// TestNewPermutedArenaFileValidates rejects malformed permutations at
// construction: wrong length, out-of-range entries, duplicates.
func TestNewPermutedArenaFileValidates(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(80, 2.5, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := permutedStore(t, g)
	slab, bitLens, order, _ := f.ArenaLayout()
	params := map[string]string{"n": strconv.Itoa(g.N())}
	cases := map[string][]int32{
		"short":        order[:len(order)-1],
		"out-of-range": append(append([]int32{}, order[:len(order)-1]...), int32(len(order))),
		"duplicate":    append(append([]int32{}, order[:len(order)-1]...), order[0]),
	}
	for name, bad := range cases {
		if _, err := NewPermutedArenaFile(f.Scheme, params, slab, bitLens, bad); err == nil {
			t.Errorf("%s permutation accepted", name)
		}
	}
}

// TestV1LayoutParamRejected: the v1 format predates physical layouts, so a v1
// store that claims one is corrupt by definition and must not load (its
// labels would be read un-permuted).
func TestV1LayoutParamRejected(t *testing.T) {
	f := sampleFile(t)
	f.Params["layout"] = "degree"
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("v1 store declaring a layout was accepted")
	}
}

// TestV2WithoutPermutationBackCompat: id-ordered v2 stores carry no
// permutation block and must keep loading exactly as before the layout
// extension — LayoutOrder nil, arena exposed by the plain accessor.
func TestV2WithoutPermutationBackCompat(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(100, 2.5, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, ok := lab.Arena()
	if !ok {
		t.Fatal("id-ordered pipeline labeling is not arena-backed")
	}
	bitLens := make([]int, g.N())
	for v := range bitLens {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		bitLens[v] = l.Len()
	}
	f, err := NewArenaFile(lab.Scheme(), map[string]string{"n": strconv.Itoa(g.N())}, slab, bitLens)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, load := range []func() (*File, error){
		func() (*File, error) { return Read(bytes.NewReader(data)) },
		func() (*File, error) { return ReadBytes(data) },
	} {
		got, err := load()
		if err != nil {
			t.Fatal(err)
		}
		if got.LayoutOrder() != nil {
			t.Fatal("id-ordered store grew a permutation")
		}
		if _, _, ok := got.Arena(); !ok {
			t.Fatal("id-ordered v2 store hides its arena")
		}
		for v := 0; v < g.N(); v++ {
			want, err := lab.Label(v)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Labels[v].Equal(want) {
				t.Fatalf("label %d differs", v)
			}
		}
	}
}
