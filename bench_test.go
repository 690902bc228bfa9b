package repro

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hashing"
	"repro/internal/powerlaw"
	"repro/internal/schemes/baseline"
	"repro/internal/schemes/distance"
	"repro/internal/schemes/forest"
	"repro/internal/schemes/onequery"
)

// ---------------------------------------------------------------------------
// Experiment benchmarks: one per table/figure of the evaluation. Each runs
// the same code path as `plbench -experiment <ID> -quick`; run plbench for
// the rendered tables and see EXPERIMENTS.md for paper-vs-measured numbers.
// ---------------------------------------------------------------------------

func benchExperiment(b *testing.B, run func(experiments.Config) ([]*experiments.Table, error)) {
	b.Helper()
	cfg := experiments.Config{Quick: true, Seed: 20160711}
	for i := 0; i < b.N; i++ {
		tables, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkE1LabelSizeVsN(b *testing.B)     { benchExperiment(b, experiments.E1LabelSizeVsN) }
func BenchmarkE2ThresholdSweep(b *testing.B)   { benchExperiment(b, experiments.E2ThresholdSweep) }
func BenchmarkE3AlphaSweep(b *testing.B)       { benchExperiment(b, experiments.E3AlphaSweep) }
func BenchmarkE4LowerBound(b *testing.B)       { benchExperiment(b, experiments.E4LowerBound) }
func BenchmarkE5DistanceLabels(b *testing.B)   { benchExperiment(b, experiments.E5DistanceLabels) }
func BenchmarkE6BAForest(b *testing.B)         { benchExperiment(b, experiments.E6BAForest) }
func BenchmarkE7OneQuery(b *testing.B)         { benchExperiment(b, experiments.E7OneQuery) }
func BenchmarkE8DecodeThroughput(b *testing.B) { benchExperiment(b, experiments.E8DecodeThroughput) }
func BenchmarkE9ThresholdAblation(b *testing.B) {
	benchExperiment(b, experiments.E9ThresholdAblation)
}
func BenchmarkE10FatEncoding(b *testing.B) { benchExperiment(b, experiments.E10FatEncoding) }
func BenchmarkE11DynamicRelabels(b *testing.B) {
	benchExperiment(b, experiments.E11DynamicRelabels)
}
func BenchmarkE12IncompleteKnowledge(b *testing.B) {
	benchExperiment(b, experiments.E12IncompleteKnowledge)
}
func BenchmarkE13UniversalGraphs(b *testing.B) {
	benchExperiment(b, experiments.E13UniversalGraphs)
}
func BenchmarkE14ExpectedLabelSize(b *testing.B) {
	benchExperiment(b, experiments.E14ExpectedLabelSize)
}
func BenchmarkE15CompressedThin(b *testing.B) {
	benchExperiment(b, experiments.E15CompressedThin)
}
func BenchmarkE16CommunicationCost(b *testing.B) {
	benchExperiment(b, experiments.E16CommunicationCost)
}
func BenchmarkE17RoutingStretch(b *testing.B) {
	benchExperiment(b, experiments.E17RoutingStretch)
}
func BenchmarkE18PriceOfLocality(b *testing.B) {
	benchExperiment(b, experiments.E18PriceOfLocality)
}
func BenchmarkE19GenerativeModels(b *testing.B) {
	benchExperiment(b, experiments.E19GenerativeModels)
}
func BenchmarkE20EncodeScalability(b *testing.B) {
	benchExperiment(b, experiments.E20EncodeScalability)
}
func BenchmarkE21AdversarialH(b *testing.B) {
	benchExperiment(b, experiments.E21AdversarialH)
}
func BenchmarkE24ObservabilityOverhead(b *testing.B) {
	benchExperiment(b, experiments.E24ObservabilityOverhead)
}

func BenchmarkE25SkewLayout(b *testing.B) {
	benchExperiment(b, experiments.E25SkewLayout)
}

func BenchmarkE27DistanceServing(b *testing.B) {
	benchExperiment(b, experiments.E27DistanceServing)
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: encoder throughput and per-query decode latency for each
// scheme on a shared power-law workload.
// ---------------------------------------------------------------------------

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.ChungLuPowerLaw(1<<14, 2.5, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkEncodePowerLaw(b *testing.B) {
	g := benchGraph(b)
	s := core.NewPowerLawScheme(2.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encode(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodePowerLawParallel(b *testing.B) {
	g := benchGraph(b)
	s := core.NewPowerLawScheme(2.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EncodeParallel(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeSparse(b *testing.B) {
	g := benchGraph(b)
	s := core.NewSparseSchemeAuto()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encode(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeForest(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (forest.Scheme{}).Encode(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeOneQuery(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (onequery.Scheme{Seed: 1}).Encode(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDistanceF3(b *testing.B) {
	g, err := gen.ChungLuPowerLaw(1<<11, 2.5, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (distance.Scheme{Alpha: 2.5, F: 3}).Encode(g); err != nil {
			b.Fatal(err)
		}
	}
}

// queryPairs builds a deterministic query mix (half edges, half random).
func queryPairs(g *graph.Graph, count int) [][2]int {
	rng := rand.New(rand.NewSource(9))
	pairs := make([][2]int, 0, count)
	budget := count / 2
	g.Edges(func(u, v int) {
		if budget > 0 {
			pairs = append(pairs, [2]int{u, v})
			budget--
		}
	})
	for len(pairs) < count {
		pairs = append(pairs, [2]int{rng.Intn(g.N()), rng.Intn(g.N())})
	}
	return pairs
}

func benchDecode(b *testing.B, s core.Scheme) {
	b.Helper()
	g := benchGraph(b)
	lab, err := s.Encode(g)
	if err != nil {
		b.Fatal(err)
	}
	pairs := queryPairs(g, 4096)
	b.ReportMetric(float64(lab.Stats().Max), "maxlabelbits")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := lab.Adjacent(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngine builds the zero-allocation query engine over the compacted
// Theorem 4 labeling on the shared power-law workload.
func benchEngine(b *testing.B) (*core.QueryEngine, [][2]int) {
	b.Helper()
	g := benchGraph(b)
	lab, err := core.NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewQueryEngine(lab.Compact())
	if err != nil {
		b.Fatal(err)
	}
	return eng, queryPairs(g, 4096)
}

// BenchmarkQueryEngineAdjacent must report 0 allocs/op: the engine's hot
// path is pure word-addressed probes into the arena slab.
func BenchmarkQueryEngineAdjacent(b *testing.B) {
	eng, pairs := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := eng.Adjacent(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryEngineAdjacentManyInstrumented is the same batch with a live
// core.EngineMetrics attached: the tally-and-flush design must keep the path
// at 0 allocs/op, with the per-batch atomic flush amortized to noise.
func BenchmarkQueryEngineAdjacentManyInstrumented(b *testing.B) {
	eng, pairs := benchEngine(b)
	var em core.EngineMetrics
	eng.AttachMetrics(&em)
	out := make([]bool, 0, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = eng.AdjacentMany(pairs, out[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/query")
	if got := em.Queries.Load(); got != int64(b.N*len(pairs)) {
		b.Fatalf("metrics counted %d queries, drove %d", got, b.N*len(pairs))
	}
}

// BenchmarkQueryEngineAdjacentMany answers the whole 4096-pair batch per
// iteration into a reused result slice — also 0 allocs/op.
func BenchmarkQueryEngineAdjacentMany(b *testing.B) {
	eng, pairs := benchEngine(b)
	out := make([]bool, 0, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = eng.AdjacentMany(pairs, out[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/query")
}

// BenchmarkQueryEngineAdjacentManyZipf is the skew path E25 measures: a
// Zipf(s=1.1) probe stream over the degree-ordered arena, answered 4096
// pairs at a time. The stream advances every iteration (each batch is drawn
// fresh, with the timer stopped) rather than replaying one batch whose
// working set would stay cache-resident. Must report 0 allocs/op.
func BenchmarkQueryEngineAdjacentManyZipf(b *testing.B) {
	g := benchGraph(b)
	s := core.NewPowerLawScheme(2.5)
	s.SetLayout(core.LayoutDegree)
	lab, err := s.Encode(g)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewQueryEngine(lab)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := experiments.NewProbeSampler(g, experiments.DistZipf, 1.1, 7)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 4096
	pairs := make([][2]int, 0, batch)
	out := make([]bool, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pairs = ps.Pairs(pairs[:0], batch)
		b.StartTimer()
		out, err = eng.AdjacentMany(pairs, out[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/query")
}

func BenchmarkQueryEngineAdjacentManyParallel(b *testing.B) {
	eng, pairs := benchEngine(b)
	out := make([]bool, 0, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = eng.AdjacentManyParallel(pairs, out[:0], 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/query")
}

func BenchmarkDecodePowerLaw(b *testing.B) { benchDecode(b, core.NewPowerLawScheme(2.5)) }
func BenchmarkDecodeSparse(b *testing.B)   { benchDecode(b, core.NewSparseSchemeAuto()) }
func BenchmarkDecodeForest(b *testing.B)   { benchDecode(b, forest.Scheme{}) }
func BenchmarkDecodeNeighborList(b *testing.B) {
	benchDecode(b, baseline.NeighborList{})
}

func BenchmarkDecodeOneQuery(b *testing.B) {
	g := benchGraph(b)
	enc, err := (onequery.Scheme{Seed: 1}).Encode(g)
	if err != nil {
		b.Fatal(err)
	}
	pairs := queryPairs(g, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := enc.Adjacent(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeDistanceF3(b *testing.B) {
	g, err := gen.ChungLuPowerLaw(1<<11, 2.5, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	lab, err := (distance.Scheme{Alpha: 2.5, F: 3}).Encode(g)
	if err != nil {
		b.Fatal(err)
	}
	pairs := queryPairs(g, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := lab.Dist(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate benchmarks.
// ---------------------------------------------------------------------------

func BenchmarkZeta(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := powerlaw.Zeta(2.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFKSBuild(b *testing.B) {
	keys := make([]uint64, 1<<15)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 99
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hashing.Build(keys, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChungLuGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gen.ChungLuPowerLaw(1<<14, 2.5, 2, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Generation-pipeline benchmarks (the BenchmarkGen prefix is the CI
// generation smoke target): sequential seed path vs sharded samplers +
// two-pass EdgeBuilder, plus the parallel edge-list I/O. See EXPERIMENTS.md
// E22 for the committed 1M-vertex table.
// ---------------------------------------------------------------------------

// genBenchN is the default workload size; override with GEN_BENCH_N (the
// EXPERIMENTS.md E22 table uses GEN_BENCH_N=1000000).
const genBenchN = 1 << 17

func genBenchSize(b *testing.B) int {
	b.Helper()
	if s := os.Getenv("GEN_BENCH_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			b.Fatalf("GEN_BENCH_N: %v", err)
		}
		return n
	}
	return genBenchN
}

func genBenchWeights(b *testing.B) []float64 {
	b.Helper()
	w, err := gen.PowerLawWeights(genBenchSize(b), 2.5, 2)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkGenChungLuSeq is the sequential seed path: single-stream
// sampler into the incremental Builder-backed CSR (via gen.ChungLu).
func BenchmarkGenChungLuSeq(b *testing.B) {
	w := genBenchWeights(b)
	b.ReportAllocs()
	b.ResetTimer()
	var m int
	for i := 0; i < b.N; i++ {
		m = gen.ChungLu(w, 1).M()
	}
	b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func benchGenChungLuParallel(b *testing.B, workers int) {
	w := genBenchWeights(b)
	b.ReportAllocs()
	b.ResetTimer()
	var m int
	for i := 0; i < b.N; i++ {
		m = gen.ChungLuParallel(w, 1, workers).M()
	}
	b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkGenChungLuParallel1(b *testing.B) { benchGenChungLuParallel(b, 1) }
func BenchmarkGenChungLuParallel4(b *testing.B) { benchGenChungLuParallel(b, 4) }
func BenchmarkGenChungLuParallel8(b *testing.B) { benchGenChungLuParallel(b, 8) }

// genBenchEdges samples one fixed Chung–Lu edge set for the builder
// benchmarks.
func genBenchEdges(b *testing.B) (int, []graph.Edge) {
	b.Helper()
	g := gen.ChungLuParallel(genBenchWeights(b), 1, 1)
	edges := make([]graph.Edge, 0, g.M())
	g.Edges(func(u, v int) { edges = append(edges, graph.Edge{U: int32(u), V: int32(v)}) })
	return g.N(), edges
}

// BenchmarkGenBuilderBuild is the seed CSR path: per-vertex append slices
// plus per-vertex sort at Build.
func BenchmarkGenBuilderBuild(b *testing.B) {
	n, edges := genBenchEdges(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := graph.NewBuilder(n)
		for _, e := range edges {
			if err := bld.AddEdge(int(e.U), int(e.V)); err != nil {
				b.Fatal(err)
			}
		}
		if bld.Build().M() != len(edges) {
			b.Fatal("edge count mismatch")
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func benchGenEdgeBuilderBuild(b *testing.B, workers int) {
	n, edges := genBenchEdges(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eb := graph.NewEdgeBuilder(n, 1)
		eb.Shard(0).AddEdges(edges)
		if eb.Build(workers).M() != len(edges) {
			b.Fatal("edge count mismatch")
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkGenEdgeBuilderBuild1(b *testing.B) { benchGenEdgeBuilderBuild(b, 1) }
func BenchmarkGenEdgeBuilderBuild4(b *testing.B) { benchGenEdgeBuilderBuild(b, 4) }
func BenchmarkGenEdgeBuilderBuild8(b *testing.B) { benchGenEdgeBuilderBuild(b, 8) }

func benchGenWrite(b *testing.B, workers int) {
	g, err := gen.ChungLuPowerLaw(genBenchSize(b), 2.5, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.WriteEdgeListParallel(io.Discard, workers); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.M())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkGenWriteEdgeListSeq(b *testing.B)       { benchGenWrite(b, 1) }
func BenchmarkGenWriteEdgeListParallel4(b *testing.B) { benchGenWrite(b, 4) }

func benchGenRead(b *testing.B, workers int) {
	g, err := gen.ChungLuPowerLaw(genBenchSize(b), 2.5, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := graph.ReadEdgeListParallel(bytes.NewReader(data), workers)
		if err != nil {
			b.Fatal(err)
		}
		if got.M() != g.M() {
			b.Fatal("edge count mismatch")
		}
	}
	b.ReportMetric(float64(g.M())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkGenReadEdgeListSeq(b *testing.B)       { benchGenRead(b, 1) }
func BenchmarkGenReadEdgeListParallel4(b *testing.B) { benchGenRead(b, 4) }

func BenchmarkBAGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gen.BarabasiAlbert(1<<14, 3, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlEmbed(b *testing.B) {
	p, err := powerlaw.NewParams(2.5, 1<<13)
	if err != nil {
		b.Fatal(err)
	}
	h := gen.ErdosRenyi(p.I1, 0.5, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.PlEmbed(p, h); err != nil {
			b.Fatal(err)
		}
	}
}
