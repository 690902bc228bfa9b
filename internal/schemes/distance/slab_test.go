package distance

import (
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// slabTestGraphs returns the graph sweep the equivalence suite runs over:
// a power-law graph, a denser one, a sparse disconnected one, a ring, and
// degenerate sizes.
func slabTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	cl, err := gen.ChungLuPowerLaw(300, 2.5, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := gen.ChungLuPowerLaw(150, 2.2, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := gen.ChungLuPowerLaw(200, 3.0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	rb := graph.NewBuilder(64)
	for v := 0; v < 64; v++ {
		rb.AddEdge(v, (v+1)%64)
	}
	tiny := graph.NewBuilder(2)
	tiny.AddEdge(0, 1)
	single := graph.NewBuilder(1)
	return map[string]*graph.Graph{
		"chunglu":  cl,
		"dense":    dense,
		"sparse":   sparse,
		"ring":     rb.Build(),
		"tiny":     tiny.Build(),
		"isolated": single.Build(),
	}
}

// TestDistEngineMatchesLegacyPLL pins DistEngine answers over the PLL slab
// byte-identical to PLLDecoder.Dist for every vertex pair, across worker
// counts and layouts.
func TestDistEngineMatchesLegacyPLL(t *testing.T) {
	for name, g := range slabTestGraphs(t) {
		legacy, err := PLLScheme{}.Encode(g)
		if err != nil {
			t.Fatalf("%s: legacy encode: %v", name, err)
		}
		for _, workers := range []int{1, 3} {
			for _, lay := range []core.Layout{core.LayoutID, core.LayoutDegree} {
				arena, err := PLLScheme{}.EncodeArena(g, workers, lay)
				if err != nil {
					t.Fatalf("%s w=%d lay=%v: EncodeArena: %v", name, workers, lay, err)
				}
				eng, err := core.NewDistEngine(arena)
				if err != nil {
					t.Fatalf("%s w=%d lay=%v: NewDistEngine: %v", name, workers, lay, err)
				}
				n := g.N()
				for u := 0; u < n; u++ {
					for v := 0; v < n; v++ {
						want, err := legacy.Dist(u, v)
						if err != nil {
							t.Fatalf("legacy Dist(%d,%d): %v", u, v, err)
						}
						got, err := eng.Dist(u, v)
						if err != nil {
							t.Fatalf("engine Dist(%d,%d): %v", u, v, err)
						}
						if got != want {
							t.Fatalf("%s w=%d lay=%v: Dist(%d,%d) = %d, legacy %d", name, workers, lay, u, v, got, want)
						}
					}
				}
			}
		}
	}
}

// TestDistEngineMatchesLegacyBounded pins the bounded-distance engine to
// Decoder.Dist, and additionally asserts the slab labels are bit-for-bit
// the legacy labels (the bdist layout is unchanged, only the container is).
func TestDistEngineMatchesLegacyBounded(t *testing.T) {
	for name, g := range slabTestGraphs(t) {
		for _, f := range []int{2, 4} {
			s := Scheme{Alpha: 2.5, F: f}
			legacy, err := s.Encode(g)
			if err != nil {
				t.Fatalf("%s f=%d: legacy encode: %v", name, f, err)
			}
			for _, workers := range []int{1, 4} {
				for _, lay := range []core.Layout{core.LayoutID, core.LayoutDegree} {
					arena, err := s.EncodeArena(g, workers, lay)
					if err != nil {
						t.Fatalf("%s f=%d w=%d lay=%v: EncodeArena: %v", name, f, workers, lay, err)
					}
					views, err := bitstr.SlabViewsPermuted(arena.Slab, arena.BitLens, arena.Order)
					if err != nil {
						t.Fatalf("%s f=%d: views: %v", name, f, err)
					}
					for v := 0; v < g.N(); v++ {
						want, err := legacy.Label(v)
						if err != nil {
							t.Fatal(err)
						}
						if !views[v].Equal(want) {
							t.Fatalf("%s f=%d w=%d lay=%v: label %d differs from legacy", name, f, workers, lay, v)
						}
					}
					eng, err := core.NewDistEngine(arena)
					if err != nil {
						t.Fatalf("%s f=%d w=%d lay=%v: NewDistEngine: %v", name, f, workers, lay, err)
					}
					n := g.N()
					for u := 0; u < n; u++ {
						for v := 0; v < n; v++ {
							want, err := legacy.Dist(u, v)
							if err != nil {
								t.Fatalf("legacy Dist(%d,%d): %v", u, v, err)
							}
							got, err := eng.Dist(u, v)
							if err != nil {
								t.Fatalf("engine Dist(%d,%d): %v", u, v, err)
							}
							if got != want {
								t.Fatalf("%s f=%d w=%d lay=%v: Dist(%d,%d) = %d, legacy %d", name, f, workers, lay, u, v, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestDistEngineBatchesMatchSingle pins DistMany and DistManyParallel to
// the single-query path.
func TestDistEngineBatchesMatchSingle(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(400, 2.5, 3, 23)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		arena func() (*core.DistArena, error)
	}{
		{"pll", func() (*core.DistArena, error) { return PLLScheme{}.EncodeArena(g, 0, core.LayoutDegree) }},
		{"bdist", func() (*core.DistArena, error) {
			return Scheme{Alpha: 2.5, F: 3}.EncodeArena(g, 0, core.LayoutDegree)
		}},
	} {
		arena, err := tc.arena()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		eng, err := core.NewDistEngine(arena)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		pairs := make([][2]int, 0, 4096)
		x := uint64(88172645463325252)
		for i := 0; i < 4096; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			u := int(x % uint64(g.N()))
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			pairs = append(pairs, [2]int{u, int(x % uint64(g.N()))})
		}
		want := make([]int, len(pairs))
		for i, p := range pairs {
			if want[i], err = eng.Dist(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
		check := func(label string, got []int, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, label, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %s: pair %d = %d, want %d", tc.name, label, i, got[i], want[i])
				}
			}
		}
		got, err := eng.DistMany(pairs, nil)
		check("DistMany", got, err)
		got, err = eng.DistManyParallel(pairs, nil, 4)
		check("DistManyParallel", got, err)
	}
}

// TestDistEngineZeroAlloc is the CI allocation gate: the single-query and
// batch distance paths must not allocate.
func TestDistEngineZeroAlloc(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(1000, 2.5, 3, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		arena func() (*core.DistArena, error)
	}{
		{"pll", func() (*core.DistArena, error) { return PLLScheme{}.EncodeArena(g, 0, core.LayoutDegree) }},
		{"bdist", func() (*core.DistArena, error) {
			return Scheme{Alpha: 2.5, F: 3}.EncodeArena(g, 0, core.LayoutDegree)
		}},
	} {
		arena, err := tc.arena()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewDistEngine(arena)
		if err != nil {
			t.Fatal(err)
		}
		pairs := make([][2]int, 512)
		for i := range pairs {
			pairs[i] = [2]int{(i * 37) % g.N(), (i * 101) % g.N()}
		}
		out := make([]int, 0, len(pairs))
		if avg := testing.AllocsPerRun(10, func() {
			if _, err := eng.Dist(pairs[0][0], pairs[0][1]); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: Dist allocates %.1f/op", tc.name, avg)
		}
		if avg := testing.AllocsPerRun(10, func() {
			if _, err := eng.DistMany(pairs, out[:0]); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: DistMany allocates %.1f/op", tc.name, avg)
		}
	}
}

// benchDistEngine builds a PLL engine over a mid-size power-law graph.
func benchDistEngine(b *testing.B, kind string) (*core.DistEngine, [][2]int) {
	b.Helper()
	g, err := gen.ChungLuPowerLaw(1<<13, 2.5, 3, 17)
	if err != nil {
		b.Fatal(err)
	}
	var arena *core.DistArena
	switch kind {
	case "pll":
		arena, err = PLLScheme{}.EncodeArena(g, 0, core.LayoutDegree)
	case "bdist":
		arena, err = Scheme{Alpha: 2.5, F: 4}.EncodeArena(g, 0, core.LayoutDegree)
	}
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewDistEngine(arena)
	if err != nil {
		b.Fatal(err)
	}
	pairs := make([][2]int, 4096)
	x := uint64(2463534242)
	for i := range pairs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u := int(x % uint64(g.N()))
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pairs[i] = [2]int{u, int(x % uint64(g.N()))}
	}
	return eng, pairs
}

// BenchmarkDistEngineDist measures the single-query hot path; CI asserts
// 0 B/op, 0 allocs/op.
func BenchmarkDistEngineDist(b *testing.B) {
	for _, kind := range []string{"pll", "bdist"} {
		b.Run(kind, func(b *testing.B) {
			eng, pairs := benchDistEngine(b, kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i&4095]
				if _, err := eng.Dist(p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistEngineDistMany measures the batch path at batch 4096; CI
// asserts 0 B/op, 0 allocs/op.
func BenchmarkDistEngineDistMany(b *testing.B) {
	for _, kind := range []string{"pll", "bdist"} {
		b.Run(kind, func(b *testing.B) {
			eng, pairs := benchDistEngine(b, kind)
			out := make([]int, 0, len(pairs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if out, err = eng.DistMany(pairs, out[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistEncodeArena compares slab-pipeline encode throughput against
// the legacy Builder-based PLL encoder (the E27 encode column).
func BenchmarkDistEncodeArena(b *testing.B) {
	g, err := gen.ChungLuPowerLaw(1<<13, 2.5, 3, 17)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pll-arena", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (PLLScheme{}).EncodeArena(g, 0, core.LayoutID); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pll-legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (PLLScheme{}).Encode(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}
