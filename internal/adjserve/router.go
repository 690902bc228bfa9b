package adjserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Router is the scatter-gather front of a sharded serving tier. Downstream it
// speaks the ordinary adjserve wire protocol — clients cannot tell a router
// from a single server holding the whole labeling — and upstream it holds one
// pipelined Client per shard server. Each query frame is split by the
// ownership rule, the per-shard sub-batches are fanned out concurrently, and
// the per-shard bit-vector answers are scattered back into request order.
//
// Routing rule (the invariant TestRouterRoutingInvariant pins down): a query
// (u,v) can only be answered by a shard holding a full thin body of u or v,
// or — when both are fat — by any shard, since fat–fat bitmaps are
// replicated everywhere. So a thin endpoint forces its owner, and every
// remaining case (u==v, thin–thin, fat–fat) goes to min(owner(u), owner(v)).
// Min rather than either owner keeps the choice deterministic; the sharded
// engine's residency guard (core.ErrNotResident) turns any violation of this
// rule into a loud error frame instead of a silent wrong answer. The rule
// needs the fat set, which is why the shard-info handshake carries the fat
// bitmap: naive min-owner alone would misroute a fat–thin pair whose fat
// endpoint has the smaller owner.
//
// Per-request failure semantics mirror the single server's: a shard error
// (or a dead shard) poisons only the query frames routed to it — each gets an
// error frame, the downstream connection stays up, and frames touching only
// live shards keep answering.
type Router struct {
	front

	clients  []*Client // by shard index (partition) or address order (replicas)
	fatBits  []byte    // replicated fat set, bit v MSB-first within byte v/8
	n        int
	fn       core.ShardFn
	maxBatch int
	// replicas marks a replica fleet: every upstream reported the trivial
	// 1-shard map, so each holds a whole store (the distance-serving
	// deployment; a single plain server is the degenerate 1-replica fleet).
	// Queries route by owner-of-u (floor(u*R/n)) purely for load spreading —
	// any replica could answer any pair.
	replicas bool

	metrics RouterMetrics
	bufPool sync.Pool // *routerBufs; per-router because sizes scale with shard count
}

// NewRouter dials one server per address, performs the shard-info handshake
// with each, and admits the fleet as one of two coherent shapes:
//
//   - A partition: every shard reports the same vertex count and ownership
//     function, a shard count equal to the fleet size, a distinct index (two
//     servers claiming the same shard — overlapping ownership — is a
//     deployment error caught here), and a byte-identical fat bitmap.
//     clients are held in shard-index order, so addrs may be listed in any
//     order.
//   - A replica fleet: every upstream reports the trivial 1-shard map with
//     the same vertex count and fat bitmap — R whole copies of one store,
//     the distance-serving deployment (op=dist on a partition is refused;
//     distance stores are never sharded). clients stay in addr order.
//
// maxBatch caps pairs per downstream frame (<= 0 selects DefaultMaxBatch);
// upstream sub-batches are never larger, so upstream servers need an equal
// or larger limit.
func NewRouter(addrs []string, maxBatch int) (*Router, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("adjserve: router needs at least one shard address")
	}
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	r := &Router{
		clients:  make([]*Client, len(addrs)),
		maxBatch: maxBatch,
	}
	infos := make([]*ShardInfo, len(addrs))
	for i, addr := range addrs {
		c, err := Dial(addr)
		if err != nil {
			r.closeClients()
			return nil, fmt.Errorf("adjserve: router: shard %s: %w", addr, err)
		}
		c.MaxBatch = maxBatch
		r.clients[i] = c
		si, err := c.ShardInfo()
		if err != nil {
			r.closeClients()
			return nil, fmt.Errorf("adjserve: router: shard %s handshake: %w", addr, err)
		}
		infos[i] = si
	}
	r.replicas = true
	for _, si := range infos {
		if si.Map.Count != 1 || si.Map.Index != 0 {
			r.replicas = false
			break
		}
	}
	if r.replicas {
		r.n, r.fn, r.fatBits = infos[0].N, infos[0].Map.Fn, infos[0].FatBits
		for i, si := range infos {
			if si.N != r.n {
				r.closeClients()
				return nil, fmt.Errorf("adjserve: router: replica %s serves %d vertices, fleet serves %d",
					addrs[i], si.N, r.n)
			}
			if !bytes.Equal(si.FatBits, r.fatBits) {
				r.closeClients()
				return nil, fmt.Errorf("adjserve: router: replica %s reports a different fat set than the fleet (mixed labelings?)", addrs[i])
			}
		}
	} else {
		ordered := make([]*Client, len(addrs))
		seen := make([]string, len(addrs)) // claimed address by shard index
		for i, si := range infos {
			if err := r.admit(addrs[i], si, seen); err != nil {
				r.closeClients()
				return nil, err
			}
			ordered[si.Map.Index] = r.clients[i]
			seen[si.Map.Index] = addrs[i]
		}
		r.clients = ordered
	}
	r.metrics.Upstreams = make([]UpstreamMetrics, len(addrs))
	// A slow-only capture records no fan-out detail, so it charges the whole
	// routing window to one upstream stage.
	r.init(&r.metrics.FrontMetrics, obs.StageUpstream, r.openConn)
	return r, nil
}

// admit validates one partition handshake against the fleet shape established
// by the shards admitted before it.
func (r *Router) admit(addr string, si *ShardInfo, seen []string) error {
	if si.Map.Count != len(r.clients) {
		return fmt.Errorf("adjserve: router: shard %s is %d of %d shards, fleet has %d servers",
			addr, si.Map.Index, si.Map.Count, len(r.clients))
	}
	if prev := seen[si.Map.Index]; prev != "" {
		return fmt.Errorf("adjserve: router: shards %s and %s both claim index %d (overlapping ownership)",
			prev, addr, si.Map.Index)
	}
	if r.fatBits == nil {
		r.n, r.fn, r.fatBits = si.N, si.Map.Fn, si.FatBits
		return nil
	}
	if si.N != r.n {
		return fmt.Errorf("adjserve: router: shard %s serves %d vertices, fleet serves %d", addr, si.N, r.n)
	}
	if si.Map.Fn != r.fn {
		return fmt.Errorf("adjserve: router: shard %s uses ownership function %s, fleet uses %s", addr, si.Map.Fn, r.fn)
	}
	if !bytes.Equal(si.FatBits, r.fatBits) {
		return fmt.Errorf("adjserve: router: shard %s reports a different fat set than the fleet (mixed labelings?)", addr)
	}
	return nil
}

func (r *Router) closeClients() {
	for _, c := range r.clients {
		if c != nil {
			c.Close()
		}
	}
}

// N returns the vertex count of the fronted labeling.
func (r *Router) N() int { return r.n }

// Shards returns the number of upstream servers (partition shards, or
// replicas when Replicas reports true).
func (r *Router) Shards() int { return len(r.clients) }

// Replicas reports whether the fleet handshook as identical whole-store
// replicas (owner-of-u routing, distance frames allowed) rather than a
// shard partition.
func (r *Router) Replicas() bool { return r.replicas }

// Metrics returns the router's instrumentation; RegisterMetrics exposes it
// (and every upstream client's) on a registry.
func (r *Router) Metrics() *RouterMetrics { return &r.metrics }

// RegisterMetrics exposes the router metrics plus each upstream client's
// metrics (labeled by shard index) on reg, including a per-upstream in-flight
// gauge backed by Client.Pending. Call once per registry.
func (r *Router) RegisterMetrics(reg *obs.Registry) {
	r.metrics.Register(reg)
	for i, c := range r.clients {
		shard := strconv.Itoa(i)
		c.Metrics().RegisterWith(reg, "shard", shard)
		cl := c
		reg.GaugeFunc("adjserve_router_upstream_pending_frames",
			"Upstream frames written but not yet answered, by shard.",
			func() int64 { return int64(cl.Pending()) }, "shard", shard)
	}
}

// fat reports whether vertex v is fat on the fronted labeling.
func (r *Router) fat(v int) bool {
	return r.fatBits[v>>3]&(1<<(7-uint(v)&7)) != 0
}

// route picks the shard that answers (u, v); both must be in range.
func (r *Router) route(u, v int) int {
	if r.replicas {
		return r.ownerOf(u)
	}
	count := len(r.clients)
	ou := core.ShardOwner(r.fn, u, r.n, count)
	ov := core.ShardOwner(r.fn, v, r.n, count)
	uFat, vFat := r.fat(u), r.fat(v)
	switch {
	case u == v || uFat == vFat:
		return min(ou, ov)
	case !uFat:
		return ou
	default:
		return ov
	}
}

// ownerOf is the replica-fleet placement rule: replica floor(u*R/n) answers
// every query whose first endpoint is u. Any replica could — each holds the
// whole store — but keying on u alone spreads load and keeps each vertex's
// queries on one upstream, so each replica's hot working set is its own
// slice of the id space.
func (r *Router) ownerOf(u int) int {
	return int(int64(u) * int64(len(r.clients)) / int64(r.n))
}

// Close drains the router exactly as Server.Close drains a server — stop
// accepting, let every connection finish its in-flight frame, wait — and
// then closes the upstream clients. Idempotent.
func (r *Router) Close() error {
	err := r.front.Close()
	r.closeClients()
	return err
}

// shardJob is one upstream's slice of a pair frame, handed to that upstream's
// worker goroutine and joined on wg. pairs, idx and b grow to the
// connection's working set and are reused for every subsequent frame.
type shardJob struct {
	plane *pairPlane
	pairs [][2]int
	idx   []int32 // request positions of pairs, for the scatter
	b     batch   // the upstream call's wire answers (one per pair) and calls
	err   error
	wg    *sync.WaitGroup
	// traced selects the traced upstream call; tr then accumulates the
	// upstream client's stages plus the shard's own stage report, merged into
	// the frame's tally (relabeled with the shard index) after the join. The
	// tally lives in the pooled job so the traced fan-out allocates nothing
	// per frame either.
	traced bool
	tr     obs.SpanTally
}

// routerBufs is one downstream connection's answerer: pooled scratch — one
// shardJob (sub-batch, scatter indexes, answers) per upstream, the
// request-ordered answer gather, and the join WaitGroup, everything a frame
// needs, so the steady-state fan-out performs zero heap allocations — plus
// the channels of the connection's upstream workers.
type routerBufs struct {
	r     *Router
	jobs  []shardJob
	pairs [][2]uint64 // a pair frame's decoded pairs
	ans   []uint8
	wg    sync.WaitGroup
	chans []chan *shardJob
}

// openConn starts one persistent worker goroutine per upstream for a new
// downstream connection, fed over a buffered channel, so the per-frame
// fan-out is channel sends and a WaitGroup join — no goroutine spawning on
// the query path.
func (r *Router) openConn() answerer {
	b, ok := r.bufPool.Get().(*routerBufs)
	if !ok {
		b = &routerBufs{r: r, jobs: make([]shardJob, len(r.clients))}
		for s := range b.jobs {
			b.jobs[s].wg = &b.wg
		}
	}
	b.chans = make([]chan *shardJob, len(r.clients))
	for s := range b.chans {
		b.chans[s] = make(chan *shardJob, 1)
		go r.worker(s, b.chans[s])
	}
	return b
}

func (b *routerBufs) answer(req, resp []byte, tp *obs.SpanTally) ([]byte, int, *core.EngineMetrics) {
	out, queries := b.r.process(req, resp, b, tp)
	return out, queries, nil
}

func (b *routerBufs) release() {
	for _, ch := range b.chans {
		close(ch)
	}
	b.chans = nil
	b.r.bufPool.Put(b)
}

// worker answers one shard's sub-batches for one downstream connection.
func (r *Router) worker(s int, jobs <-chan *shardJob) {
	c := r.clients[s]
	m := &r.metrics.Upstreams[s]
	for job := range jobs {
		start := time.Now()
		var tw callTrace
		if job.traced {
			tw = c.openTrace(&job.tr)
		}
		err := c.pairsMany(job.plane, job.pairs, &job.b, &tw)
		if err == nil {
			c.closeTrace(&tw)
		}
		m.Batches.Inc()
		m.Pairs.Add(int64(len(job.pairs)))
		m.LatencyNs.ObserveDuration(time.Since(start))
		if errors.Is(err, ErrShed) {
			m.Sheds.Inc()
		} else if err != nil {
			m.Errors.Inc()
		}
		job.err = err
		job.wg.Done()
	}
}

// mergeShardTrace folds one shard job's tally into the frame tally: the
// upstream client's own stages (encode/flush/net at HopSelf) collapse into a
// single per-shard net stage, the shard server's stage report (HopPeer after
// the client's relabel) is re-labeled with the shard index, and anything else
// — already shard-labeled by a nested router — passes through unchanged.
func mergeShardTrace(dst, jt *obs.SpanTally, shard uint8) {
	var netNs int64
	for _, st := range jt.Stages() {
		switch st.Hop {
		case obs.HopSelf:
			netNs += st.Ns
		case obs.HopPeer:
			dst.Add(st.Stage, shard, st.Ns)
		default:
			dst.Add(st.Stage, st.Hop, st.Ns)
		}
	}
	dst.Add(obs.StageNet, shard, netNs)
}

// process answers one downstream request payload, appending the response to
// resp. Info ops are answered locally — the
// router already knows the fleet's n and fat set from the handshake, and
// presents itself as a single unsharded server so routers compose with every
// existing client (plquery -remote, plbench, even another router). A non-nil
// tp marks the frame as traced: query/dist paths record their fan-out stages
// into it and thread the trace upstream.
func (r *Router) process(req, resp []byte, bufs *routerBufs, tp *obs.SpanTally) (out []byte, queries int) {
	if len(req) == 0 {
		return appendErr(resp, "empty request"), 0
	}
	op, body := req[0], req[1:]
	switch op {
	case opInfo:
		resp = append(resp, statusOK)
		resp = binary.AppendUvarint(resp, uint64(r.n))
		return binary.AppendUvarint(resp, localCaps), 0
	case opShardInfo:
		resp = append(resp, statusOK)
		resp = binary.AppendUvarint(resp, uint64(r.n))
		resp = binary.AppendUvarint(resp, 1)
		resp = binary.AppendUvarint(resp, 0)
		resp = append(resp, byte(core.ShardRange))
		return append(resp, r.fatBits...), 0
	case opQuery, opDist:
		p := planeOf(op)
		if p == distPlane && !r.replicas {
			return appendErr(resp, "distance queries require a replica fleet (this router fronts a %d-shard partition)", len(r.clients)), 0
		}
		return r.routePairs(p, body, resp, bufs, tp)
	default:
		return appendErr(resp, "unknown op %d", op), 0
	}
}

// routePairs is the router's one scatter/gather, for either plane: decode
// the pairs and route each with Router.route, fan the per-upstream
// sub-batches out concurrently, and gather the upstreams' wire answers back
// into request order for the plane's codec.
func (r *Router) routePairs(p *pairPlane, body, resp []byte, bufs *routerBufs, tp *obs.SpanTally) (out []byte, queries int) {
	var tScatter time.Time
	if tp != nil {
		tScatter = time.Now()
	}
	count, body, err := readPairCount(body, r.maxBatch)
	if err != nil {
		return appendErr(resp, "%v", err), 0
	}
	jobs := bufs.jobs
	for s := range jobs {
		jobs[s].plane = p
		jobs[s].pairs = jobs[s].pairs[:0]
		jobs[s].idx = jobs[s].idx[:0]
		jobs[s].err = nil
		jobs[s].traced = tp != nil
		if tp != nil {
			jobs[s].tr.Reset()
			jobs[s].tr.ID = tp.ID
		}
	}
	pairs, rest, rerr := readPairs(bufs.pairs, body, count)
	bufs.pairs = pairs
	for i, pr := range pairs {
		u, v := pr[0], pr[1]
		if u >= uint64(r.n) || v >= uint64(r.n) {
			return appendErr(resp, "pair %d (%d,%d): vertex out of range [0,%d)", i, u, v, r.n), 0
		}
		s := r.route(int(u), int(v))
		jobs[s].pairs = append(jobs[s].pairs, [2]int{int(u), int(v)})
		jobs[s].idx = append(jobs[s].idx, int32(i))
	}
	switch {
	case rerr != nil:
		return appendErr(resp, "%v", rerr), 0
	case len(rest) != 0:
		return appendErr(resp, "%d trailing bytes after %d pairs", len(rest), count), 0
	}
	// Scatter phase: one channel send per active upstream, answered
	// concurrently by the connection's workers, joined on the shared
	// WaitGroup.
	active := 0
	for s := range jobs {
		if len(jobs[s].pairs) > 0 {
			active++
		}
	}
	var tUpstream time.Time
	if tp != nil {
		tUpstream = time.Now()
		tp.Add(obs.StageScatter, obs.HopSelf, int64(tUpstream.Sub(tScatter)))
	}
	bufs.wg.Add(active)
	for s := range jobs {
		if len(jobs[s].pairs) > 0 {
			bufs.chans[s] <- &jobs[s]
		}
	}
	bufs.wg.Wait()
	var tGather time.Time
	if tp != nil {
		tGather = time.Now()
		tp.Add(obs.StageUpstream, obs.HopSelf, int64(tGather.Sub(tUpstream)))
	}
	// A shed from one upstream poisons only the sub-batches routed to it: the
	// downstream frame that needed the overloaded upstream answers with a
	// shed frame (so the client sees ErrShed, a retryable refusal, not a
	// generic failure), while frames touching only live upstreams keep
	// answering. A non-shed error wins over a shed when both happen in one
	// frame — it is the more informative verdict.
	shed := false
	for s := range jobs {
		if err := jobs[s].err; err != nil {
			if errors.Is(err, ErrShed) {
				shed = true
				continue
			}
			return appendErr(resp, "%s %d (%d pairs): %v", p.upstream, s, len(jobs[s].pairs), err), 0
		}
	}
	if shed {
		return appendShed(resp), 0
	}
	// Gather phase: fold each upstream's answers back into request order.
	ans := slices.Grow(bufs.ans[:0], count)[:count]
	bufs.ans = ans
	for s := range jobs {
		idx := jobs[s].idx
		for j, a := range jobs[s].b.ans[:len(idx)] {
			ans[idx[j]] = a
		}
	}
	resp = append(resp, statusOK)
	resp = binary.AppendUvarint(resp, uint64(count))
	resp = p.appendAnswers(resp, ans)
	if tp != nil {
		for s := range jobs {
			if len(jobs[s].pairs) > 0 {
				mergeShardTrace(tp, &jobs[s].tr, uint8(s))
			}
		}
		tp.Add(obs.StageGather, obs.HopSelf, int64(time.Since(tGather)))
	}
	return resp, count
}

// RouterMetrics is the router's always-on instrumentation: the front's
// downstream block under the adjserve_router_* names, and Upstreams, the
// per-shard fan-out counters (one entry per shard, exposed with a "shard"
// label). The upstream clients' own metrics (frames, bytes, redials,
// in-flight) are registered alongside by Router.RegisterMetrics.
type RouterMetrics struct {
	FrontMetrics
	Upstreams []UpstreamMetrics // by shard index
}

// UpstreamMetrics counts one shard's slice of the fan-out.
type UpstreamMetrics struct {
	Batches   obs.Counter   // sub-batches fanned out to this shard
	Pairs     obs.Counter   // pairs routed to this shard
	Errors    obs.Counter   // sub-batches that failed (error frame or dead shard)
	Sheds     obs.Counter   // sub-batches the shard refused under load
	LatencyNs obs.Histogram // upstream round-trip per sub-batch
}

// Register exposes the metrics on reg under the adjserve_router_* family
// names. Call once per registry (Router.RegisterMetrics also covers the
// upstream clients).
func (m *RouterMetrics) Register(reg *obs.Registry) {
	m.register(reg, "adjserve_router_")
	for s := range m.Upstreams {
		um := &m.Upstreams[s]
		shard := strconv.Itoa(s)
		reg.Counter("adjserve_router_upstream_batches_total", "Sub-batches fanned out, by shard.", &um.Batches, "shard", shard)
		reg.Counter("adjserve_router_upstream_pairs_total", "Pairs routed upstream, by shard.", &um.Pairs, "shard", shard)
		reg.Counter("adjserve_router_upstream_errors_total", "Failed upstream sub-batches, by shard.", &um.Errors, "shard", shard)
		reg.Counter("adjserve_router_upstream_sheds_total", "Upstream sub-batches refused under load, by shard.", &um.Sheds, "shard", shard)
		reg.Histogram("adjserve_router_upstream_latency_ns", "Upstream sub-batch round-trip in nanoseconds, by shard.", &um.LatencyNs, "shard", shard)
	}
}
