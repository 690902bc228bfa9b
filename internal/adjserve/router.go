package adjserve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
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

	// maxConns, when > 0, caps concurrently open downstream connections,
	// mirroring Server.SetMaxConns: over-cap accepts get one shed frame and a
	// close. Set before Serve.
	maxConns int

	metrics RouterMetrics
	bufPool sync.Pool // *routerBufs; per-router because sizes scale with shard count

	// sink, when non-nil, collects completed traces at the router hop,
	// mirroring Server.sink: traced downstream frames, self-sampled frames,
	// and slow frames. Set before Serve.
	sink *obs.TraceSink

	// draining is read once per frame by every downstream connection's loop;
	// atomic so the frame loop takes no lock (mu guards only the registry).
	draining atomic.Bool

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
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
		conns:    make(map[net.Conn]struct{}),
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
	r.metrics.init(len(addrs))
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

// SetMaxConns caps concurrently open downstream connections; n <= 0 means
// unlimited. Over-cap connections are answered with one shed frame and
// closed, exactly like Server.SetMaxConns. Must be called before Serve.
func (r *Router) SetMaxConns(n int) { r.maxConns = n }

// SetTraceSink installs the router's trace collection point, mirroring
// Server.SetTraceSink. Must be called before Serve.
func (r *Router) SetTraceSink(sink *obs.TraceSink) { r.sink = sink }

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

// Serve accepts downstream connections on ln until Close, mirroring
// Server.Serve: each connection's frames are answered in order on its own
// goroutine (the fan-out inside a frame is concurrent, the frames are not
// reordered).
func (r *Router) Serve(ln net.Listener) error {
	r.mu.Lock()
	if r.draining.Load() {
		r.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	r.ln = ln
	r.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if r.draining.Load() {
				return ErrClosed
			}
			return err
		}
		r.mu.Lock()
		if r.draining.Load() {
			r.mu.Unlock()
			c.Close()
			continue
		}
		if r.maxConns > 0 && len(r.conns) >= r.maxConns {
			r.mu.Unlock()
			r.metrics.ConnsShed.Inc()
			go refuseConn(c)
			continue
		}
		r.conns[c] = struct{}{}
		r.wg.Add(1)
		r.mu.Unlock()
		go r.handle(c)
	}
}

// ListenAndServe listens on addr and calls Serve.
func (r *Router) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return r.Serve(ln)
}

// Close drains the router exactly as Server.Close drains a server — stop
// accepting, let every connection finish its in-flight frame, wait — and
// then closes the upstream clients. Idempotent.
func (r *Router) Close() error {
	r.mu.Lock()
	if !r.draining.CompareAndSwap(false, true) {
		r.mu.Unlock()
		r.wg.Wait()
		return nil
	}
	ln := r.ln
	for c := range r.conns {
		c.SetReadDeadline(time.Now())
	}
	r.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	r.wg.Wait()
	r.closeClients()
	return err
}

// shardJob is one shard's slice of a query or dist frame, handed to that
// shard's worker goroutine and joined on wg. op selects the upstream call
// (opQuery fills out, opDist fills dists). pairs/idx/out/dists grow to the
// connection's working set and are reused for every subsequent frame.
type shardJob struct {
	op    byte
	pairs [][2]int
	idx   []int32 // request positions of pairs, for the scatter
	out   []bool
	dists []int
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

// routerBufs is the pooled per-connection scratch: request/response payloads
// plus one shardJob (sub-batch, scatter indexes, answers) per shard, the
// gathered distance slice, and the join WaitGroup — everything a frame
// needs, so the steady-state fan-out performs zero heap allocations.
type routerBufs struct {
	req, resp []byte
	jobs      []shardJob
	dists     []int // request-ordered distance gather
	wg        sync.WaitGroup
}

func (r *Router) getBufs() *routerBufs {
	if b, ok := r.bufPool.Get().(*routerBufs); ok {
		return b
	}
	b := &routerBufs{jobs: make([]shardJob, len(r.clients))}
	for s := range b.jobs {
		b.jobs[s].wg = &b.wg
	}
	return b
}

// handle runs one downstream connection's frame loop. Each connection gets
// one persistent worker goroutine per shard, fed over a buffered channel, so
// the per-frame fan-out is channel sends and a WaitGroup join — no goroutine
// spawning on the query path.
func (r *Router) handle(c net.Conn) {
	r.metrics.ConnsTotal.Inc()
	r.metrics.ConnsActive.Add(1)
	defer func() {
		r.metrics.ConnsActive.Add(-1)
		r.mu.Lock()
		delete(r.conns, c)
		r.mu.Unlock()
		c.Close()
		r.wg.Done()
	}()
	bufs := r.getBufs()
	defer r.bufPool.Put(bufs)
	chans := make([]chan *shardJob, len(r.clients))
	for s := range chans {
		chans[s] = make(chan *shardJob, 1)
		go r.worker(s, chans[s])
	}
	defer func() {
		for _, ch := range chans {
			close(ch)
		}
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	var hdr, fhdr [frameHeaderLen]byte
	pending := 0
	// burstStart tracks queue wait exactly like Server.handle: a frame whose
	// header was already buffered when we looped back waited in this
	// connection's read burst since burstStart.
	var burstStart time.Time
	for {
		if r.draining.Load() {
			bw.Flush()
			return
		}
		waiting := br.Buffered() >= frameHeaderLen
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			bw.Flush()
			return
		}
		tHdr := time.Now()
		if !waiting {
			burstStart = tHdr
		}
		plen := int(binary.LittleEndian.Uint32(hdr[:]))
		var resp []byte
		if plen > maxFramePayload {
			if _, err := io.CopyN(io.Discard, br, int64(plen)); err != nil {
				return
			}
			resp = appendErr(bufs.resp[:0], "frame of %d bytes exceeds limit %d", plen, maxFramePayload)
			r.metrics.ErrorFrames.Inc()
		} else {
			if cap(bufs.req) < plen {
				bufs.req = make([]byte, plen)
			}
			req := bufs.req[:plen]
			if _, err := io.ReadFull(br, req); err != nil {
				return
			}
			tPayload := time.Now()
			resp, _ = r.routeFrame(req, bufs, chans, tPayload,
				int64(tPayload.Sub(tHdr)), int64(tHdr.Sub(burstStart)))
		}
		r.metrics.Frames.Inc()
		r.metrics.BytesIn.Add(int64(frameHeaderLen + plen))
		r.metrics.BytesOut.Add(int64(frameHeaderLen + len(resp)))
		bufs.resp = resp[:0]
		fhdr = frameHeader(len(resp))
		if _, err := bw.Write(fhdr[:]); err != nil {
			return
		}
		if _, err := bw.Write(resp); err != nil {
			return
		}
		pending++
		// One Flush per read-burst, bounded like the server's coalescing so a
		// downstream client that stopped reading backpressures this loop
		// instead of growing the write buffer.
		if br.Buffered() < frameHeaderLen || pending >= DefaultMaxPendingResponses {
			if err := bw.Flush(); err != nil {
				return
			}
			pending = 0
		}
	}
}

// worker answers one shard's sub-batches for one downstream connection.
func (r *Router) worker(s int, jobs <-chan *shardJob) {
	c := r.clients[s]
	m := &r.metrics.Upstreams[s]
	for job := range jobs {
		start := time.Now()
		var err error
		if job.op == opDist {
			var dists []int
			if job.traced {
				dists, err = c.DistManyTrace(job.pairs, job.dists[:0], &job.tr)
			} else {
				dists, err = c.DistMany(job.pairs, job.dists[:0])
			}
			job.dists = dists
		} else {
			var out []bool
			if job.traced {
				out, err = c.AdjacentManyTrace(job.pairs, job.out[:0], &job.tr)
			} else {
				out, err = c.AdjacentMany(job.pairs, job.out[:0])
			}
			job.out = out
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

// routeFrame is the router's analogue of Server.serveFrame: it strips an
// inbound trace context, decides whether this frame is captured (remote trace,
// self-sample, or slow), answers via process, and on capture echoes the
// router-hop stage report back downstream and deposits the completed trace.
// start is the instant the payload finished reading; readNs and queueNs are
// the header→payload read time and the pre-read queue wait.
//
// The untraced path materializes no SpanTally and performs no extra work
// beyond the timestamps already taken by the frame loop, preserving the
// zero-allocation router batch path.
func (r *Router) routeFrame(req []byte, bufs *routerBufs, chans []chan *shardJob, start time.Time, readNs, queueNs int64) ([]byte, int) {
	var tc traceCtx
	if len(req) > traceIDLen && req[0]&opTraceFlag != 0 {
		tc.remote = true
		tc.id = binary.LittleEndian.Uint64(req[1 : 1+traceIDLen])
		req[traceIDLen] = req[0] &^ opTraceFlag
		req = req[traceIDLen:]
	}
	var op byte
	if len(req) > 0 {
		op = req[0]
	}
	sink := r.sink
	if !tc.remote && sink.SampleNow() {
		tc.sample = true
		tc.id = obs.NewTraceID()
	}
	// Captured frames thread a tally through process so the fan-out records
	// scatter/upstream/gather windows and per-shard sub-traces. Slow-only
	// frames (detected after the fact) get the coarse queue/read/route stages.
	var t obs.SpanTally
	var tp *obs.SpanTally
	if tc.remote || tc.sample {
		t.ID = tc.id
		tp = &t
	}
	resp, queries := r.process(req, bufs, chans, tp)
	routeNs := int64(time.Since(start))
	switch {
	case len(resp) > 0 && resp[0] == statusErr:
		r.metrics.ErrorFrames.Inc()
	case len(resp) > 0 && resp[0] == statusShed:
		r.metrics.ShedFrames.Inc()
	case queries > 0:
		r.metrics.Queries.Add(int64(queries))
		h := &r.metrics.FrameLatencyNs[batchClass(queries)]
		if tc.id != 0 {
			h.ObserveExemplar(routeNs, tc.id)
		} else {
			h.Observe(routeNs)
		}
	}
	total := queueNs + readNs + routeNs
	slowNs := sink.SlowThreshold()
	slow := slowNs > 0 && total > slowNs
	if tc.remote || tc.sample || slow {
		if tp == nil {
			// Slow-only capture: no fan-out detail was recorded, attribute the
			// whole routing window as one upstream stage.
			t.Add(obs.StageUpstream, obs.HopSelf, routeNs)
		}
		t.Add(obs.StageQueue, obs.HopSelf, queueNs)
		t.Add(obs.StageRead, obs.HopSelf, readNs)
		if tc.remote && len(resp) > 0 && resp[0] == statusOK {
			resp[0] |= opTraceFlag
			resp = appendTraceTally(resp, &t)
		}
		if t.ID == 0 {
			t.ID = obs.NewTraceID()
		}
		var tr obs.Trace
		tr.Fill(&t, op, queries, total)
		if tc.remote || tc.sample {
			sink.Deposit(&tr)
		}
		if slow {
			sink.DepositSlow(&tr)
		}
	}
	return resp, queries
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
// bufs.resp (reused from its start). Info ops are answered locally — the
// router already knows the fleet's n and fat set from the handshake, and
// presents itself as a single unsharded server so routers compose with every
// existing client (plquery -remote, plbench, even another router). A non-nil
// tp marks the frame as traced: query/dist paths record their fan-out stages
// into it and thread the trace upstream.
func (r *Router) process(req []byte, bufs *routerBufs, chans []chan *shardJob, tp *obs.SpanTally) (out []byte, queries int) {
	resp := bufs.resp[:0]
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
	case opQuery:
		count, k := binary.Uvarint(body)
		if k <= 0 {
			return appendErr(resp, "bad pair count"), 0
		}
		if count > uint64(r.maxBatch) {
			return appendErr(resp, "batch of %d pairs exceeds limit %d", count, r.maxBatch), 0
		}
		return r.processQuery(body[k:], resp, int(count), bufs, chans, tp)
	case opDist:
		if !r.replicas {
			return appendErr(resp, "distance queries require a replica fleet (this router fronts a %d-shard partition)", len(r.clients)), 0
		}
		count, k := binary.Uvarint(body)
		if k <= 0 {
			return appendErr(resp, "bad pair count"), 0
		}
		if count > uint64(r.maxBatch) {
			return appendErr(resp, "batch of %d pairs exceeds limit %d", count, r.maxBatch), 0
		}
		return r.processDist(body[k:], resp, int(count), bufs, chans, tp)
	default:
		return appendErr(resp, "unknown op %d", op), 0
	}
}

// processQuery decodes, routes, fans out and scatters one query batch.
func (r *Router) processQuery(body, resp []byte, count int, bufs *routerBufs, chans []chan *shardJob, tp *obs.SpanTally) (out []byte, queries int) {
	var tScatter time.Time
	if tp != nil {
		tScatter = time.Now()
	}
	jobs := bufs.jobs
	for s := range jobs {
		jobs[s].op = opQuery
		jobs[s].pairs = jobs[s].pairs[:0]
		jobs[s].idx = jobs[s].idx[:0]
		jobs[s].out = jobs[s].out[:0]
		jobs[s].err = nil
		jobs[s].traced = tp != nil
		if tp != nil {
			jobs[s].tr.Reset()
			jobs[s].tr.ID = tp.ID
		}
	}
	for i := 0; i < count; i++ {
		u, nu := binary.Uvarint(body)
		if nu <= 0 {
			return appendErr(resp, "pair %d: bad u", i), 0
		}
		body = body[nu:]
		v, nv := binary.Uvarint(body)
		if nv <= 0 {
			return appendErr(resp, "pair %d: bad v", i), 0
		}
		body = body[nv:]
		if u >= uint64(r.n) || v >= uint64(r.n) {
			return appendErr(resp, "pair %d (%d,%d): vertex out of range [0,%d)", i, u, v, r.n), 0
		}
		s := r.route(int(u), int(v))
		jobs[s].pairs = append(jobs[s].pairs, [2]int{int(u), int(v)})
		jobs[s].idx = append(jobs[s].idx, int32(i))
	}
	if len(body) != 0 {
		return appendErr(resp, "%d trailing bytes after %d pairs", len(body), count), 0
	}
	// Scatter phase: one channel send per active shard, answered concurrently
	// by the connection's workers, joined on the shared WaitGroup.
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
			chans[s] <- &jobs[s]
		}
	}
	bufs.wg.Wait()
	var tGather time.Time
	if tp != nil {
		tGather = time.Now()
		tp.Add(obs.StageUpstream, obs.HopSelf, int64(tGather.Sub(tUpstream)))
	}
	// A shed from one shard poisons only the sub-batches routed to it: the
	// downstream frame that needed the overloaded shard answers with a shed
	// frame (so the client sees ErrShed, a retryable refusal, not a generic
	// failure), while frames touching only live shards keep answering. A
	// non-shed error wins over a shed when both happen in one frame — it is
	// the more informative verdict.
	shed := false
	for s := range jobs {
		if err := jobs[s].err; err != nil {
			if errors.Is(err, ErrShed) {
				shed = true
				continue
			}
			return appendErr(resp, "shard %d (%d pairs): %v", s, len(jobs[s].pairs), err), 0
		}
	}
	if shed {
		return appendShed(resp), 0
	}
	// Gather phase: fold each shard's bit answers back into request order.
	resp = append(resp, statusOK)
	resp = binary.AppendUvarint(resp, uint64(count))
	bitsOff := len(resp)
	for i := 0; i < (count+7)/8; i++ {
		resp = append(resp, 0)
	}
	for s := range jobs {
		idx := jobs[s].idx
		for j, adj := range jobs[s].out {
			if adj {
				i := idx[j]
				resp[bitsOff+int(i)/8] |= 1 << (7 - uint(i)%8)
			}
		}
	}
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

// processDist decodes, routes, fans out and gathers one distance batch on a
// replica fleet. The shape mirrors processQuery; only the routing rule
// (owner-of-u) and the response encoding (uvarint distances, scattered
// through a request-ordered int slice because uvarints have no fixed offsets)
// differ.
func (r *Router) processDist(body, resp []byte, count int, bufs *routerBufs, chans []chan *shardJob, tp *obs.SpanTally) (out []byte, queries int) {
	var tScatter time.Time
	if tp != nil {
		tScatter = time.Now()
	}
	jobs := bufs.jobs
	for s := range jobs {
		jobs[s].op = opDist
		jobs[s].pairs = jobs[s].pairs[:0]
		jobs[s].idx = jobs[s].idx[:0]
		jobs[s].dists = jobs[s].dists[:0]
		jobs[s].err = nil
		jobs[s].traced = tp != nil
		if tp != nil {
			jobs[s].tr.Reset()
			jobs[s].tr.ID = tp.ID
		}
	}
	for i := 0; i < count; i++ {
		u, nu := binary.Uvarint(body)
		if nu <= 0 {
			return appendErr(resp, "pair %d: bad u", i), 0
		}
		body = body[nu:]
		v, nv := binary.Uvarint(body)
		if nv <= 0 {
			return appendErr(resp, "pair %d: bad v", i), 0
		}
		body = body[nv:]
		if u >= uint64(r.n) || v >= uint64(r.n) {
			return appendErr(resp, "pair %d (%d,%d): vertex out of range [0,%d)", i, u, v, r.n), 0
		}
		s := r.ownerOf(int(u))
		jobs[s].pairs = append(jobs[s].pairs, [2]int{int(u), int(v)})
		jobs[s].idx = append(jobs[s].idx, int32(i))
	}
	if len(body) != 0 {
		return appendErr(resp, "%d trailing bytes after %d pairs", len(body), count), 0
	}
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
			chans[s] <- &jobs[s]
		}
	}
	bufs.wg.Wait()
	var tGather time.Time
	if tp != nil {
		tGather = time.Now()
		tp.Add(obs.StageUpstream, obs.HopSelf, int64(tGather.Sub(tUpstream)))
	}
	shed := false
	for s := range jobs {
		if err := jobs[s].err; err != nil {
			if errors.Is(err, ErrShed) {
				shed = true
				continue
			}
			return appendErr(resp, "replica %d (%d pairs): %v", s, len(jobs[s].pairs), err), 0
		}
	}
	if shed {
		return appendShed(resp), 0
	}
	all := bufs.dists[:0]
	for i := 0; i < count; i++ {
		all = append(all, 0)
	}
	for s := range jobs {
		idx := jobs[s].idx
		for j, d := range jobs[s].dists {
			all[idx[j]] = d
		}
	}
	bufs.dists = all
	resp = append(resp, statusOK)
	resp = binary.AppendUvarint(resp, uint64(count))
	for _, d := range all {
		resp = binary.AppendUvarint(resp, wireDist(d))
	}
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

// RouterMetrics is the router's always-on instrumentation: the downstream
// side mirrors ServerMetrics under the adjserve_router_* names, and Upstreams
// carries the per-shard fan-out counters (one entry per shard, exposed with a
// "shard" label). The upstream clients' own metrics (frames, bytes, redials,
// in-flight) are registered alongside by Router.RegisterMetrics.
type RouterMetrics struct {
	ConnsActive obs.Gauge   // open downstream connections
	ConnsTotal  obs.Counter // downstream connections accepted
	ConnsShed   obs.Counter // downstream connections refused at the admission cap
	Frames      obs.Counter // downstream request frames answered
	ErrorFrames obs.Counter // downstream frames answered with an error status
	ShedFrames  obs.Counter // downstream frames answered with a shed status
	Queries     obs.Counter // adjacency pairs answered
	BytesIn     obs.Counter // downstream request bytes, frame headers included
	BytesOut    obs.Counter // downstream response bytes, frame headers included
	// FrameLatencyNs[batchClass] is the downstream frame handling time
	// (request fully read → response buffered) of successful query frames —
	// routing, fan-out, and scatter included.
	FrameLatencyNs [len(batchClassLabels)]obs.Histogram

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

func (m *RouterMetrics) init(shards int) { m.Upstreams = make([]UpstreamMetrics, shards) }

// Register exposes the metrics on reg under the adjserve_router_* family
// names. Call once per registry (Router.RegisterMetrics also covers the
// upstream clients).
func (m *RouterMetrics) Register(reg *obs.Registry) {
	reg.Gauge("adjserve_router_connections_active", "Open downstream connections.", &m.ConnsActive)
	reg.Counter("adjserve_router_connections_total", "Downstream connections accepted.", &m.ConnsTotal)
	reg.Counter("adjserve_router_connections_shed_total", "Downstream connections refused at the admission cap.", &m.ConnsShed)
	reg.Counter("adjserve_router_frames_total", "Downstream request frames answered (all ops).", &m.Frames)
	reg.Counter("adjserve_router_error_frames_total", "Downstream frames answered with an error status.", &m.ErrorFrames)
	reg.Counter("adjserve_router_shed_frames_total", "Downstream frames answered with a shed status.", &m.ShedFrames)
	reg.Counter("adjserve_router_queries_total", "Adjacency pairs answered.", &m.Queries)
	reg.Counter("adjserve_router_bytes_in_total", "Downstream request bytes read, frame headers included.", &m.BytesIn)
	reg.Counter("adjserve_router_bytes_out_total", "Downstream response bytes written, frame headers included.", &m.BytesOut)
	for i := range m.FrameLatencyNs {
		reg.Histogram("adjserve_router_frame_latency_ns",
			"Downstream query-frame handling time in nanoseconds by batch-size class.",
			&m.FrameLatencyNs[i], "batch", batchClassLabels[i])
	}
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
