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

// Register exposes the metrics on reg under the engine_* family names, for
// either plane (a distance server's engine reports here too). Call once per
// registry.
func (m *EngineMetrics) Register(reg *obs.Registry) {
	reg.Counter("engine_queries_total", "Adjacency queries answered by the query engine.", &m.Queries)
	reg.Counter("engine_batches_total", "Batch calls (AdjacentMany and the parallel variant).", &m.Batches)
	reg.Counter("engine_branch_thin_total", "Queries resolved by the thin O(log n) binary-search branch.", &m.ThinBranch)
	reg.Counter("engine_branch_fat_total", "Queries resolved by the fat O(1) bitmap-probe branch.", &m.FatBranch)
	reg.Counter("engine_branch_self_total", "Queries short-circuited by equal identifiers.", &m.SelfBranch)
	reg.Histogram("engine_batch_pairs", "Pairs per batch call.", &m.BatchPairs)
	reg.Histogram("engine_probe_ns", "Engine-probe wall time per served frame.", &m.ProbeNs)
}

// Branch names the decode branch that resolved one query. A plane's kernel
// returns it beside the answer (and beside an error), and the batch driver
// running the kernel owns the tally: the kernel never sees a pointer, so
// drivers stay allocation-free. Every in-range query counts as a query,
// including one refused because its body is not resident on this shard;
// an out-of-range query counts nowhere.
type Branch uint8

const (
	BranchSelf    Branch = iota // equal identifiers short-circuit
	BranchThin                  // adjacency thin search; PLL merge; thin-thin bounded distance
	BranchFat                   // adjacency fat bitmap; bounded distance with a fat endpoint
	BranchRefused               // in range, but no body on this shard resolves it: a query in no branch
	BranchRange                 // an endpoint is out of range: not a query
)

// Kernel is one plane's per-pair probe: the answer for (u, v) and the branch
// that resolved it. QueryEngine and DistEngine are the two kernels; every
// batch path (the engines' Many methods, adjserve's frame loop) runs one
// through a driver that tallies branches and flushes them. Drivers take the
// kernel as a type parameter rather than a method value: a method value
// passed across an inlined generic call escapes to the heap.
type Kernel[A any] interface {
	Probe(u, v int) (A, Branch, error)
}

// QueryTally is the stack-local accumulator a batch driver keeps: one
// increment per probed pair, flushed to an EngineMetrics in O(1) atomic
// adds per span by EngineMetrics.Flush. The zero value is an empty tally.
type QueryTally struct {
	branch [BranchRange + 1]int64 // probed pairs by Branch
}

// Add counts one probed pair that the kernel attributed to branch b.
func (t *QueryTally) Add(b Branch) { t.branch[b]++ }

// Flush charges a tally span to m and zeroes the tally. pairs > 0
// additionally records one batch of that many pairs, so an externally
// streamed frame is indistinguishable from an engine batch call; pass 0 for
// a span that ended early (the queries already probed still count). A nil
// m only zeroes the tally.
func (m *EngineMetrics) Flush(t *QueryTally, pairs int) {
	if m != nil {
		self, thin, fat := t.branch[BranchSelf], t.branch[BranchThin], t.branch[BranchFat]
		m.Queries.Add(self + thin + fat + t.branch[BranchRefused])
		m.ThinBranch.Add(thin)
		m.FatBranch.Add(fat)
		m.SelfBranch.Add(self)
		if pairs > 0 {
			m.Batches.Inc()
			m.BatchPairs.Observe(int64(pairs))
		}
	}
	*t = QueryTally{}
}

// ObserveProbe charges one served frame's engine-probe wall time, stamping
// the latency bucket's exemplar with the trace id when the frame was traced
// (id != 0) so /debug/traces can join buckets back to concrete traces. A nil
// m is a no-op.
func (m *EngineMetrics) ObserveProbe(ns int64, traceID uint64) {
	switch {
	case m == nil:
	case traceID != 0:
		m.ProbeNs.ObserveExemplar(ns, traceID)
	default:
		m.ProbeNs.Observe(ns)
	}
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
