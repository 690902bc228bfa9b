package core

import (
	"repro/internal/obs"
)

// EngineMetrics instruments a QueryEngine's hot path without breaking its
// zero-allocation guarantee: the probe loops tally into a stack-local
// QueryTally (plain register increments), and the tally is flushed to these
// atomics once per call — one batch of AdjacentMany costs a constant number
// of atomic adds regardless of its pair count.
//
// The fat/thin branch split is the paper's decode dichotomy made visible:
// ThinBranch counts queries resolved by the O(log n) binary search of
// Theorems 3–4, FatBranch the O(1) hub bitmap probes, SelfBranch the
// same-identifier short-circuit.
type EngineMetrics struct {
	Queries    obs.Counter // adjacency queries answered
	Batches    obs.Counter // AdjacentMany/AdjacentManyParallel calls
	ThinBranch obs.Counter // queries resolved by a thin binary-search probe
	FatBranch  obs.Counter // queries resolved by a fat bitmap probe
	SelfBranch obs.Counter // same-identifier short-circuits
	BatchPairs obs.Histogram
	// ProbeNs is the engine-probe wall time per served frame (decode pairs,
	// probe the arena, encode the answer), charged once per frame by the
	// serving loop via ObserveProbe — the engine-layer stage the tracing
	// plane attributes as "probe".
	ProbeNs obs.Histogram
}

// Register exposes the metrics on reg under the engine_* family names. Call
// once per registry.
func (m *EngineMetrics) Register(reg *obs.Registry) {
	reg.Counter("engine_queries_total", "Adjacency queries answered by the query engine.", &m.Queries)
	reg.Counter("engine_batches_total", "Batch calls (AdjacentMany and the parallel variant).", &m.Batches)
	reg.Counter("engine_branch_thin_total", "Queries resolved by the thin O(log n) binary-search branch.", &m.ThinBranch)
	reg.Counter("engine_branch_fat_total", "Queries resolved by the fat O(1) bitmap-probe branch.", &m.FatBranch)
	reg.Counter("engine_branch_self_total", "Queries short-circuited by equal identifiers.", &m.SelfBranch)
	reg.Histogram("engine_batch_pairs", "Pairs per batch call.", &m.BatchPairs)
	reg.Histogram("engine_probe_ns", "Engine-probe wall time per served frame.", &m.ProbeNs)
}

// RegisterDist exposes the metrics on reg under the dist_engine_* family
// names — the distance plane's instrumentation (DistEngine shares the
// EngineMetrics/QueryTally machinery; only the exposition names and branch
// semantics differ: thin counts PLL merges and thin-thin bounded pairs, fat
// counts bounded queries resolved through the fat-hub relay tables).
func (m *EngineMetrics) RegisterDist(reg *obs.Registry) {
	reg.Counter("dist_engine_queries_total", "Distance queries answered by the distance engine.", &m.Queries)
	reg.Counter("dist_engine_batches_total", "Batch calls (DistMany and variants).", &m.Batches)
	reg.Counter("dist_engine_branch_thin_total", "PLL hub-list merges and thin-thin bounded-distance queries.", &m.ThinBranch)
	reg.Counter("dist_engine_branch_fat_total", "Bounded-distance queries with a fat endpoint (fat-relay only).", &m.FatBranch)
	reg.Counter("dist_engine_branch_self_total", "Queries short-circuited by equal identifiers.", &m.SelfBranch)
	reg.Histogram("dist_engine_batch_pairs", "Pairs per distance batch call.", &m.BatchPairs)
	reg.Histogram("dist_engine_probe_ns", "Engine-probe wall time per served distance frame.", &m.ProbeNs)
}

// QueryTally is the stack-local accumulator the probe paths increment; it is
// flushed to an EngineMetrics in O(1) atomic adds per span. The zero value is
// an empty tally. Callers that stream single queries at batch rates (the
// adjserve frame loop) keep one tally per frame, feed it to AdjacentTallied,
// and flush with QueryEngine.FlushTally — per-query cost is two stack
// increments, never an atomic.
type QueryTally struct {
	queries, thin, fat, self int64
}

// ObserveProbe charges one served frame's engine-probe wall time, stamping
// the latency bucket's exemplar with the trace id when the frame was traced
// (id != 0) so /debug/traces can join buckets back to concrete traces.
func (m *EngineMetrics) ObserveProbe(ns int64, traceID uint64) {
	if traceID != 0 {
		m.ProbeNs.ObserveExemplar(ns, traceID)
		return
	}
	m.ProbeNs.Observe(ns)
}

// flush merges a tally into the atomics.
func (m *EngineMetrics) flush(t *QueryTally) {
	m.Queries.Add(t.queries)
	m.ThinBranch.Add(t.thin)
	m.FatBranch.Add(t.fat)
	m.SelfBranch.Add(t.self)
}

// pipelineMetrics instruments the slab encode pipeline (both the fat/thin
// and compressed encoders): per-phase durations and the label construction
// volume. Package-level because the pipeline entry points are free
// functions; the counters accumulate whether or not a registry exposes them.
var pipelineMetrics struct {
	Runs   obs.Counter
	Labels obs.Counter
	PlanNs obs.Histogram
	FillNs obs.Histogram
}

// RegisterPipelineMetrics exposes the encode-pipeline metrics on reg under
// the encode_* family names. Call once per registry; the values cover every
// pipeline encode in the process, including those finished before
// registration.
func RegisterPipelineMetrics(reg *obs.Registry) {
	reg.Counter("encode_runs_total", "Slab-pipeline encodes completed.", &pipelineMetrics.Runs)
	reg.Counter("encode_labels_total", "Labels constructed by the slab pipeline (rate() gives labels/s).", &pipelineMetrics.Labels)
	reg.Histogram("encode_plan_ns", "Size-plan phase duration per encode run.", &pipelineMetrics.PlanNs)
	reg.Histogram("encode_fill_ns", "Fill phase duration per encode run.", &pipelineMetrics.FillNs)
}
