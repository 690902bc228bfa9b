package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestParseLayout(t *testing.T) {
	for s, want := range map[string]Layout{"id": LayoutID, "degree": LayoutDegree} {
		got, err := ParseLayout(s)
		if err != nil || got != want {
			t.Errorf("ParseLayout(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("Layout(%v).String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParseLayout("zigzag"); err == nil {
		t.Error("ParseLayout accepted garbage")
	}
}

// layoutScheme is any scheme that can switch its physical slab layout.
type layoutScheme interface {
	Scheme
	SetLayout(Layout)
	EncodeParallel(*graph.Graph, int) (*Labeling, error)
}

// TestLayoutEquivalence is the tentpole invariant: the degree-ordered layout
// is a physical rearrangement only. Across schemes, graphs, and worker
// counts, every per-vertex label must be byte-equal to the id-ordered
// encoding's and every adjacency answer identical pair-for-pair — through
// the decoder and (for the engine's label format) through the query engine.
func TestLayoutEquivalence(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":  gen.Path(24),
		"empty": graph.Empty(3),
		"n1":    graph.Empty(1),
		"n0":    graph.Empty(0),
	}
	if g, err := gen.ChungLuPowerLaw(600, 2.5, 2, 17); err == nil {
		graphs["chunglu"] = g
	} else {
		t.Fatal(err)
	}
	if g, err := gen.BarabasiAlbert(400, 3, 23); err == nil {
		graphs["ba"] = g
	} else {
		t.Fatal(err)
	}
	schemes := map[string]func() layoutScheme{
		"powerlaw":   func() layoutScheme { return NewPowerLawScheme(2.5) },
		"sparse":     func() layoutScheme { return NewSparseSchemeAuto() },
		"compressed": func() layoutScheme { return NewCompressedScheme(NewPowerLawScheme(2.5)) },
	}
	for sname, mk := range schemes {
		for gname, g := range graphs {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", sname, gname, workers), func(t *testing.T) {
					idScheme, degScheme := mk(), mk()
					idScheme.SetLayout(LayoutID)
					degScheme.SetLayout(LayoutDegree)
					idLab, err := idScheme.EncodeParallel(g, workers)
					if err != nil {
						t.Fatal(err)
					}
					degLab, err := degScheme.EncodeParallel(g, workers)
					if err != nil {
						t.Fatal(err)
					}
					for v := 0; v < g.N(); v++ {
						a, err1 := idLab.Label(v)
						b, err2 := degLab.Label(v)
						if err1 != nil || err2 != nil {
							t.Fatal(err1, err2)
						}
						if !a.Equal(b) {
							t.Fatalf("label %d differs between layouts", v)
						}
					}
					rng := rand.New(rand.NewSource(1))
					checkPairs := equivalencePairs(g, rng, 500)
					for _, p := range checkPairs {
						a, err1 := idLab.Adjacent(p[0], p[1])
						b, err2 := degLab.Adjacent(p[0], p[1])
						if err1 != nil || err2 != nil {
							t.Fatal(err1, err2)
						}
						if a != b {
							t.Fatalf("decoder answers differ at (%d,%d): id=%v degree=%v", p[0], p[1], a, b)
						}
						if a != g.HasEdge(p[0], p[1]) {
							t.Fatalf("wrong answer at (%d,%d)", p[0], p[1])
						}
					}
					if sname == "compressed" || g.N() == 0 {
						return // engine serves the plain fat/thin format only
					}
					engID, err := NewQueryEngine(idLab)
					if err != nil {
						t.Fatal(err)
					}
					engDeg, err := NewQueryEngine(degLab)
					if err != nil {
						t.Fatal(err)
					}
					outID, err := engID.AdjacentMany(checkPairs, nil)
					if err != nil {
						t.Fatal(err)
					}
					outDeg, err := engDeg.AdjacentMany(checkPairs, nil)
					if err != nil {
						t.Fatal(err)
					}
					for i := range checkPairs {
						if outID[i] != outDeg[i] {
							t.Fatalf("engine answers differ at pair %d (%v): id=%v degree=%v",
								i, checkPairs[i], outID[i], outDeg[i])
						}
					}
				})
			}
		}
	}
}

// equivalencePairs mixes every edge (up to a cap) with random pairs so both
// positive and negative answers are exercised.
func equivalencePairs(g *graph.Graph, rng *rand.Rand, extra int) [][2]int {
	var pairs [][2]int
	g.Edges(func(u, v int) {
		if len(pairs) < 2000 {
			pairs = append(pairs, [2]int{u, v})
		}
	})
	for i := 0; i < extra && g.N() > 0; i++ {
		pairs = append(pairs, [2]int{rng.Intn(g.N()), rng.Intn(g.N())})
	}
	return pairs
}

// TestAdjacentManyConcurrentBatches hammers one degree-ordered engine with
// attached metrics from many goroutines (run under -race in CI): the engine
// is read-only after construction and each batch flushes its own tally, so
// concurrent batches share it without coordination.
func TestAdjacentManyConcurrentBatches(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(500, 2.5, 2, 41)
	if err != nil {
		t.Fatal(err)
	}
	s := NewPowerLawScheme(2.5)
	s.SetLayout(LayoutDegree)
	lab, err := s.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewQueryEngine(lab)
	if err != nil {
		t.Fatal(err)
	}
	pairs := equivalencePairs(g, rand.New(rand.NewSource(4)), 400)
	want, err := eng.AdjacentMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var em EngineMetrics
	eng.AttachMetrics(&em)
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			local := make([][2]int, len(pairs))
			idx := rng.Perm(len(pairs))
			for i, j := range idx {
				local[i] = pairs[j]
			}
			var out []bool
			for round := 0; round < rounds; round++ {
				var err error
				out, err = eng.AdjacentMany(local, out[:0])
				if err != nil {
					errs <- err
					return
				}
				for i := range local {
					if out[i] != want[idx[i]] {
						errs <- fmt.Errorf("worker %d round %d: wrong answer at pair %v", seed, round, local[i])
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := em.Queries.Load(), int64(workers*rounds*len(pairs)); got != want {
		t.Errorf("engine_queries_total = %d, want %d", got, want)
	}
}

// TestAdjacentManyZeroAlloc: the batch path over a degree-ordered slab
// performs zero heap allocations per call, metrics attached included.
func TestAdjacentManyZeroAlloc(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(400, 2.5, 2, 43)
	if err != nil {
		t.Fatal(err)
	}
	s := NewPowerLawScheme(2.5)
	s.SetLayout(LayoutDegree)
	lab, err := s.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewQueryEngine(lab)
	if err != nil {
		t.Fatal(err)
	}
	var em EngineMetrics
	eng.AttachMetrics(&em)
	pairs := equivalencePairs(g, rand.New(rand.NewSource(5)), 200)
	out := make([]bool, 0, len(pairs))
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		out, err = eng.AdjacentMany(pairs, out[:0])
		if err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AdjacentMany allocates %.1f objects/op, want 0", allocs)
	}
}
