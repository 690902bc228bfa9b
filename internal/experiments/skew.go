package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// E25SkewLayout measures what the degree-ordered slab layout buys under
// skewed traffic: the same Chung–Lu workload is labeled twice (id-ordered and
// degree-ordered physical layout), served through the query engine, and timed
// against probe streams of varying skew — uniform, Zipf over the degree
// ranking, and degree-proportional — at small and large batch sizes. Every
// configuration's answers are checked pair-for-pair against the id-ordered
// reference before timing, so the table cannot trade correctness for
// locality. A second table re-runs the E10 bitmap-vs-list fat-label
// ablation with label sizes weighted by query mass instead of uniformly —
// under skew the hot hubs are exactly the fat vertices, so per-query cost
// follows the skew-weighted average, not the plain one.
func E25SkewLayout(cfg Config) ([]*Table, error) {
	alpha := 2.5
	n := 1 << 20
	queries := 1 << 18
	if cfg.Quick {
		n = 1 << 13
		queries = 1 << 14
	}
	raw, err := gen.ChungLuPowerLaw(n, alpha, 2, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Chung–Lu assigns descending weights by vertex id, so the generator's id
	// order is already degree order — the id-ordered baseline would get the
	// hub-packing under test for free. Real-world vertex ids carry no such
	// order; shuffle them so the two layouts genuinely differ.
	g, err := shuffleIDs(raw, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	encode := func(lay core.Layout) (*core.QueryEngine, error) {
		s := core.NewPowerLawScheme(alpha)
		s.SetLayout(lay)
		lab, err := s.EncodeParallel(g, 0)
		if err != nil {
			return nil, err
		}
		return core.NewQueryEngine(lab)
	}
	engID, err := encode(core.LayoutID)
	if err != nil {
		return nil, err
	}
	engDeg, err := encode(core.LayoutDegree)
	if err != nil {
		return nil, err
	}

	var dists []skewDist
	if cfg.Dist != "" {
		d, err := ParseProbeDist(cfg.Dist)
		if err != nil {
			return nil, err
		}
		s := cfg.ZipfS
		if s == 0 {
			s = 1.1
		}
		name := string(d)
		if d == DistZipf {
			name = fmt.Sprintf("zipf(s=%.1f)", s)
		}
		dists = []skewDist{{name, d, s}}
	} else {
		dists = []skewDist{
			{"uniform", DistUniform, 0},
			{"zipf(s=0.8)", DistZipf, 0.8},
			{"zipf(s=1.1)", DistZipf, 1.1},
			{"degprop", DistDegProp, 0},
		}
	}

	tb := &Table{
		ID:    "E25",
		Title: fmt.Sprintf("skew-aware layout: probe cost by distribution × layout × batch (Chung–Lu, n=%d, α=%.1f, %d queries)", n, alpha, queries),
		Cols:  []string{"dist", "layout", "batch", "ns/query", "Mq/s", "speedup.vs.id"},
	}
	layouts := []struct {
		name string
		eng  *core.QueryEngine
	}{{"id", engID}, {"degree", engDeg}}
	// idNs is the id-layout timing of the current (dist,batch), so the
	// matching degree-layout row can report its speedup.
	var idNs float64
	for _, d := range dists {
		ps, err := NewProbeSampler(g, d.dist, d.s, cfg.Seed)
		if err != nil {
			return nil, err
		}
		pairs := ps.Pairs(make([][2]int, 0, queries), queries)
		ref, err := engID.AdjacentMany(pairs, make([]bool, 0, len(pairs)))
		if err != nil {
			return nil, err
		}
		for _, batch := range []int{64, 4096} {
			for _, lay := range layouts {
				run := func(check bool) (time.Duration, error) {
					out := make([]bool, 0, batch)
					start := time.Now()
					for off := 0; off < len(pairs); off += batch {
						end := min(off+batch, len(pairs))
						var err error
						out, err = lay.eng.AdjacentMany(pairs[off:end], out[:0])
						if err != nil {
							return 0, fmt.Errorf("%s/%s/%d: %w", d.name, lay.name, batch, err)
						}
						if check {
							for i, got := range out {
								if got != ref[off+i] {
									p := pairs[off+i]
									return 0, fmt.Errorf("%s/%s/batch=%d: answer mismatch at pair (%d,%d): got %v, id-ordered reference says %v",
										d.name, lay.name, batch, p[0], p[1], got, ref[off+i])
								}
							}
						}
					}
					return time.Since(start), nil
				}
				// Untimed verification pass (also warms the page cache
				// evenly for both layouts), then the timed pass.
				if _, err := run(true); err != nil {
					return nil, err
				}
				elapsed, err := run(false)
				if err != nil {
					return nil, err
				}
				nsQ := float64(elapsed.Nanoseconds()) / float64(len(pairs))
				speedup := "1.00"
				if lay.name == "id" {
					idNs = nsQ
				} else if nsQ > 0 {
					speedup = fmtF2(idNs / nsQ)
				}
				tb.AddRow(d.name, lay.name, fmt.Sprintf("%d", batch),
					fmtF(nsQ), fmtF2(1e3/nsQ), speedup)
			}
		}
	}
	tb.Notes = append(tb.Notes,
		"answers of every configuration are verified pair-for-pair against the id-ordered reference before timing")

	tb2, err := skewWeightedFatAblation(cfg, g, alpha, dists)
	if err != nil {
		return nil, err
	}
	return []*Table{tb, tb2}, nil
}

// shuffleIDs relabels g's vertices by a seeded random permutation.
func shuffleIDs(g *graph.Graph, seed int64) (*graph.Graph, error) {
	perm := rand.New(rand.NewSource(seed)).Perm(g.N())
	b := graph.NewBuilder(g.N())
	var addErr error
	g.Edges(func(u, v int) {
		if addErr == nil {
			addErr = b.AddEdge(perm[u], perm[v])
		}
	})
	if addErr != nil {
		return nil, addErr
	}
	return b.Build(), nil
}

// skewDist is one probe-distribution configuration of the E25 sweep.
type skewDist struct {
	name string
	dist ProbeDist
	s    float64
}

// skewWeightedFatAblation is E10's bitmap-vs-list fat-label ablation re-run
// under query skew: instead of averaging fat-label sizes uniformly, each fat
// vertex's label is weighted by its probability of appearing in a query. The
// bitmap's flat 1+w+k cost is insensitive to the weighting; the list's cost
// concentrates on the best-connected hubs, which is exactly where skewed
// traffic lands.
func skewWeightedFatAblation(cfg Config, g *graph.Graph, alpha float64, dists []skewDist) (*Table, error) {
	scheme := core.NewPowerLawScheme(alpha)
	tau, err := scheme.Threshold(g)
	if err != nil {
		return nil, err
	}
	w := bitstr.WidthFor(uint64(g.N()))
	var fat []int
	isFat := make(map[int]bool)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) >= tau {
			fat = append(fat, v)
			isFat[v] = true
		}
	}
	k := len(fat)
	tb := &Table{
		ID:    "E25",
		Title: fmt.Sprintf("fat-label bitmap-vs-list ablation under query skew (τ=%d, k=%d)", tau, k),
		Cols:  []string{"dist", "fat.query.mass", "bitmap.wavg", "list.wavg", "win"},
	}
	for _, d := range dists {
		ps, err := NewProbeSampler(g, d.dist, d.s, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			tb.AddRow(d.name, "0.000", "-", "-", "-")
			continue
		}
		var mass, bmSum, lsSum float64
		for _, v := range fat {
			p := ps.VertexProb(v)
			fatDeg := 0
			for _, u := range g.Neighbors(v) {
				if isFat[int(u)] {
					fatDeg++
				}
			}
			mass += p
			bmSum += p * float64(1+w+k)        // header + bitmap, degree-free
			lsSum += p * float64(1+w+fatDeg*w) // header + explicit fat-neighbor ids
		}
		win := "bitmap"
		if lsSum < bmSum {
			win = "list"
		}
		tb.AddRow(d.name, fmt.Sprintf("%.3f", mass), fmtF(bmSum/mass), fmtF(lsSum/mass), win)
	}
	tb.Notes = append(tb.Notes,
		"fat.query.mass is the probability a sampled endpoint is fat — skew concentrates traffic on exactly the vertices E10 ablates",
		"weights follow each distribution's vertex marginal (VertexProb); uniform reproduces E10's plain averages over the fat set")
	return tb, nil
}
