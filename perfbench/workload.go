package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Graph model shared by every workload: Chung–Lu with a power-law weight
// sequence, the paper's input family.
const (
	graphAlpha = 2.5
	graphWmin  = 2.0
	// genWorkers is fixed because the sampled edge set depends on the
	// worker count; a constant keeps one seed one graph on any machine.
	genWorkers = 2
	// poolPairs is the size of a workload's query pool. Every batch size
	// divides it, so a cycle through the pool is a whole number of frames.
	poolPairs = 1 << 21
	// zipfS is the skew of Zipf endpoints over degree rank.
	zipfS = 1.1
)

// workload is one deployment and traffic mix the benchmark runs.
type workload struct {
	name     string
	n        int    // vertices
	scheme   string // pllabel -scheme: "powerlaw" (adjacency) or "dist-pll"
	shards   int    // pllabel -shards; each shard gets its own plserve
	replicas int    // plserve copies of one store (behind plroute when > 1)
	batch    int    // pairs per frame
	zipf     bool   // Zipf endpoints over degree rank; uniform otherwise
}

var workloads = []workload{
	{name: "adj-bulk", n: 1 << 20, scheme: "powerlaw", replicas: 1, batch: 4096, zipf: true},
	{name: "adj-routed", n: 1 << 20, scheme: "powerlaw", shards: 3, batch: 64},
	{name: "dist-replicas", n: 1 << 14, scheme: "dist-pll", replicas: 2, batch: 256, zipf: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) dist() bool { return w.scheme == "dist-pll" }

// routed reports whether the fleet sits behind plroute.
func (w workload) routed() bool { return w.shards > 0 || w.replicas > 1 }

// servers is the number of plserve processes in the fleet.
func (w workload) servers() int {
	if w.shards > 0 {
		return w.shards
	}
	return w.replicas
}

// genGraph builds the workload's Chung–Lu graph from the seed.
func genGraph(n int, seed int64) (*graph.Graph, error) {
	weights, err := gen.PowerLawWeights(n, graphAlpha, graphWmin)
	if err != nil {
		return nil, err
	}
	return gen.ChungLuParallelEdges(weights, seed, genWorkers).Build(genWorkers), nil
}

// writeEdges writes g in the edge-list format pllabel reads.
func writeEdges(g *graph.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := g.WriteEdgeList(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// stream is a workload's query pairs: a pool drawn once from the seed, cut
// into consecutive frames and cycled in order, so no frame repeats within a
// cycle and the server never sees the same frame twice in a row.
type stream struct {
	pool  [][2]int
	batch int
}

// newStream draws the pool for w over g. Zipf endpoints pick degree ranks,
// so the hubs are the hot vertices; uniform endpoints pick any vertex.
func newStream(g *graph.Graph, w workload, seed int64) *stream {
	var byRank []int
	if w.zipf {
		byRank = g.VerticesByDegreeDesc()
	}
	return &stream{pool: drawPairs(g.N(), byRank, seed, poolPairs), batch: w.batch}
}

// drawPairs draws count pairs over n vertices. With byRank set, each
// endpoint is byRank[k] for a Zipf-distributed rank k; otherwise uniform.
func drawPairs(n int, byRank []int, seed int64, count int) [][2]int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed57ea))
	pick := func() int { return rng.Intn(n) }
	if byRank != nil {
		z := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
		pick = func() int { return byRank[z.Uint64()] }
	}
	pool := make([][2]int, count)
	for i := range pool {
		pool[i] = [2]int{pick(), pick()}
	}
	return pool
}

// frames is the number of frames in one cycle through the pool.
func (s *stream) frames() int { return len(s.pool) / s.batch }

// frame returns the pairs of the k-th frame sent.
func (s *stream) frame(k int64) [][2]int {
	i := int(k % int64(s.frames()))
	return s.pool[i*s.batch : (i+1)*s.batch]
}
