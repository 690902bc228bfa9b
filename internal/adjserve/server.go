package adjserve

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/peernet"
)

// Server answers adjacency batches from a shared read-only QueryEngine. The
// engine is immutable, so any number of connection goroutines query it with
// no synchronization at all; the only shared mutable state is the connection
// registry and the traffic counters. Request and response buffers are
// sync.Pool-backed and reused across every frame of a connection, so the
// steady-state frame loop performs zero heap allocations.
type Server struct {
	engine   *core.QueryEngine
	dist     *core.DistEngine
	maxBatch int

	// maxConns, when > 0, caps concurrently open client connections: an
	// accept past the cap is answered with one shed frame and closed, so a
	// protocol-speaking client sees ErrShed on its next call instead of a
	// bare RST. Set before Serve.
	maxConns int

	// shedDepth, when > 0, is the aggregate queued-frame bound: while more
	// than shedDepth frames are read-but-unflushed across all connections,
	// new query/dist frames are answered with shed frames (one buffered byte,
	// no engine work) until the depth drains below shedDepth/2. The hysteresis
	// keeps the server from flapping at the boundary; info and shard-info
	// frames are always answered so handshakes survive overload. Set before
	// Serve.
	shedDepth int

	// maxPendingResp, when > 0, caps responses coalesced into a connection's
	// write buffer before a forced Flush. Coalescing amortizes one syscall
	// over a read-burst of pipelined frames; the cap bounds both the latency a
	// buffered answer can sit unflushed and — because Flush blocks when the
	// client stops reading — the per-connection buffered state. 0 selects
	// DefaultMaxPendingResponses.
	maxPendingResp int

	// shedding is the hysteresis latch (see shedDepth); read once per frame.
	// The aggregate queued-frame depth itself lives in metrics.QueuedFrames:
	// frames whose payload has been read but whose response has not yet been
	// flushed, across every connection. Because responses coalesce per
	// read-burst, a connection sitting on a pipelined burst charges the whole
	// burst to the gauge — the queue the shedding bound watches.
	shedding atomic.Bool

	// draining is read by every connection's frame loop once per frame, so it
	// is an atomic rather than a field under mu (the mutex protects only the
	// connection registry now).
	draining atomic.Bool

	// Traffic accounts wire bytes, frames (as message pairs) and answered
	// queries in the same units as the peernet simulation.
	Traffic peernet.Traffic

	// metrics is the always-on Prometheus-facing instrumentation; see
	// ServerMetrics for what the frame loop charges and why it stays off
	// the per-query path.
	metrics ServerMetrics

	// sink, when non-nil, collects completed traces: frames that arrived
	// with a trace context, frames self-selected by the sink's sampler, and
	// frames over the slow threshold. Set before Serve; a nil sink still
	// echoes trace blocks to remotely-traced frames (the capability is
	// protocol-level, collection is per-daemon policy).
	sink *obs.TraceSink

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// DefaultMaxPendingResponses is the per-connection coalescing bound when
// Server.SetMaxPendingResponses is unset: how many answered frames may sit in
// the write buffer before the server forces a Flush.
const DefaultMaxPendingResponses = 64

// NewServer builds a server over an engine. maxBatch caps pairs per frame
// (<= 0 selects DefaultMaxBatch); larger batches are rejected with an error
// frame, not a dropped connection. engine may be nil for a distance-only
// server (SetDistEngine must then install the distance engine before Serve);
// query frames on a plane the server does not hold get an error frame.
func NewServer(engine *core.QueryEngine, maxBatch int) *Server {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	return &Server{engine: engine, maxBatch: maxBatch, conns: make(map[net.Conn]struct{})}
}

// SetDistEngine installs the distance engine answering op=dist frames. A
// server may hold either plane or both; the engines must agree on n when both
// are present. Must be called before Serve; never mutated under traffic.
func (s *Server) SetDistEngine(e *core.DistEngine) {
	s.dist = e
}

// Metrics returns the server's instrumentation, for registering on an
// obs.Registry (srv.Metrics().Register(reg)) or reading in tests.
func (s *Server) Metrics() *ServerMetrics { return &s.metrics }

// SetMaxConns caps concurrently open client connections; n <= 0 means
// unlimited. A connection accepted past the cap is answered with a single
// shed frame and closed (counted in ConnsShed), so load generators and
// routers observe ErrShed rather than a connection reset. Must be called
// before Serve.
func (s *Server) SetMaxConns(n int) { s.maxConns = n }

// SetShedDepth arms load shedding: while more than depth frames are in flight
// across all connections (read but not yet answered), query and dist frames
// are answered with shed frames until the depth drains below depth/2.
// depth <= 0 disables shedding. Must be called before Serve.
func (s *Server) SetShedDepth(depth int) { s.shedDepth = depth }

// SetMaxPendingResponses caps responses coalesced per connection between
// flushes; n <= 0 selects DefaultMaxPendingResponses. Must be called before
// Serve.
func (s *Server) SetMaxPendingResponses(n int) { s.maxPendingResp = n }

// SetTraceSink installs the trace collection point (sampling policy, trace
// ring, slow-frame log). nil disables collection; trace blocks are still
// echoed to traced requests. Must be called before Serve.
func (s *Server) SetTraceSink(sink *obs.TraceSink) { s.sink = sink }

// Shedding reports whether the server is currently refusing query frames
// under the SetShedDepth bound — the signal /readyz surfaces so load
// balancers route around an overloaded replica while it drains. Like the
// frame loop, it releases the latch once the queued depth has drained below
// half the bound, so readiness recovers even if the storm stops dead and no
// further frame re-evaluates the latch.
func (s *Server) Shedding() bool {
	if !s.shedding.Load() {
		return false
	}
	if s.metrics.QueuedFrames.Load() <= int64(s.shedDepth/2) {
		s.shedding.Store(false)
		return false
	}
	return true
}

// Serve accepts connections on ln until Close, answering each connection's
// frames in order on its own goroutine. It returns ErrClosed after Close, or
// the first accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		// Close raced ahead of us and never saw this listener; close it here
		// or it would keep accepting handshakes into the kernel backlog that
		// no goroutine will ever answer.
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrClosed
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			// Admission control: the cap protects the connections already
			// admitted. The rejection is answered off the accept loop so a
			// slow or dead peer cannot stall further accepts.
			s.mu.Unlock()
			s.metrics.ConnsShed.Inc()
			go refuseConn(c)
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(c)
	}
}

// refuseConn answers an over-cap connection with one shed frame and closes
// it. It waits for (and discards) the peer's first request before answering,
// so the shed frame is always matched FIFO to a call the client actually made
// — an unsolicited response would make the client condemn the whole
// connection as protocol corruption instead of failing one call with ErrShed.
// A peer that never writes just sees the close after the deadline.
func refuseConn(c net.Conn) {
	defer c.Close()
	deadline := time.Now().Add(2 * time.Second)
	c.SetReadDeadline(deadline)
	c.SetWriteDeadline(deadline)
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return
	}
	plen := int64(binary.LittleEndian.Uint32(hdr[:]))
	if plen > maxFramePayload {
		return
	}
	if _, err := io.CopyN(io.Discard, c, plen); err != nil {
		return
	}
	shed := appendShed(nil)
	fhdr := frameHeader(len(shed))
	if _, err := c.Write(fhdr[:]); err != nil {
		return
	}
	c.Write(shed)
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Close drains the server: the listener stops accepting, every connection
// finishes the frame it is answering (pending responses are flushed), and
// Close returns once all connection goroutines have exited. Frames a
// pipelining client had buffered beyond the in-flight one are dropped with
// the connection; clients recover by reconnecting. Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.draining.CompareAndSwap(false, true) {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	ln := s.ln
	// Wake handlers blocked in a read; they observe draining and exit after
	// flushing whatever they already answered.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// connBuffers is the pooled per-connection scratch: request and response
// payload buffers, both growing to the connection's largest frame and then
// reused for every subsequent frame.
type connBuffers struct {
	req, resp []byte
}

var bufPool = sync.Pool{New: func() any { return new(connBuffers) }}

// handle runs one connection's frame loop.
func (s *Server) handle(c net.Conn) {
	s.metrics.ConnsTotal.Inc()
	s.metrics.ConnsActive.Add(1)
	defer func() {
		s.metrics.ConnsActive.Add(-1)
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
		s.wg.Done()
	}()
	bufs := bufPool.Get().(*connBuffers)
	defer bufPool.Put(bufs)
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	maxPending := s.maxPendingResp
	if maxPending <= 0 {
		maxPending = DefaultMaxPendingResponses
	}
	// Both header arrays escape (their slices reach the net.Conn interface
	// through bufio's large-write bypass), so they live here — one allocation
	// per connection, not one per frame.
	var hdr, fhdr [frameHeaderLen]byte
	// pending counts responses coalesced into bw since the last Flush: the
	// flush below fires once per read-burst rather than once per frame, and
	// maxPending bounds how long an answer can sit buffered (and, because a
	// full socket makes Flush block, how far the loop can read ahead of a
	// client that stopped reading — backpressure, not unbounded buffering).
	pending := 0
	// queued is this connection's contribution to the aggregate QueuedFrames
	// gauge: frames whose payload has been read but whose response has not yet
	// been flushed. Charging the whole unflushed burst (rather than just the
	// frame inside process()) is what makes the gauge a real queue-depth
	// signal — a connection sitting on eight pipelined frames is eight frames
	// of backlog even though only one is on the CPU.
	queued := 0
	release := func() {
		if queued > 0 {
			s.metrics.QueuedFrames.Add(int64(-queued))
			queued = 0
		}
	}
	defer release()
	// burstStart anchors the queue-wait stage: it is reset whenever a header
	// read actually blocked (the connection was idle), so a frame's queue
	// time is how long it sat buffered behind earlier frames of the same
	// pipelined read-burst — zero for unpipelined traffic.
	var burstStart time.Time
	for {
		if s.draining.Load() {
			s.flushFinal(bw)
			return
		}
		waiting := br.Buffered() >= frameHeaderLen
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// EOF (client went away), the Close wake-up deadline, or a torn
			// header; nothing more to answer either way.
			s.flushFinal(bw)
			return
		}
		tHdr := time.Now()
		if !waiting {
			burstStart = tHdr
		}
		plen := int(binary.LittleEndian.Uint32(hdr[:]))
		var resp []byte
		queries := 0
		if plen > maxFramePayload {
			// The framing itself is still trustworthy, so skip the payload
			// and answer with an error frame instead of dropping the
			// connection.
			if _, err := io.CopyN(io.Discard, br, int64(plen)); err != nil {
				return
			}
			resp = appendErr(bufs.resp[:0], "frame of %d bytes exceeds limit %d", plen, maxFramePayload)
			s.metrics.ErrorFrames.Inc()
		} else {
			if cap(bufs.req) < plen {
				bufs.req = make([]byte, plen)
			}
			req := bufs.req[:plen]
			if _, err := io.ReadFull(br, req); err != nil {
				return
			}
			// The queued-frame window opens once the payload is fully read and
			// closes when the response is flushed (see release); summed over
			// connections it is the depth the shedding bound compares against.
			s.metrics.QueuedFrames.Add(1)
			queued++
			tPayload := time.Now()
			resp, queries = s.serveFrame(req, bufs, tPayload,
				int64(tPayload.Sub(tHdr)), int64(tHdr.Sub(burstStart)))
		}
		// Frame-granular accounting: a few uncontended atomic adds per
		// frame, amortized over the whole batch — the per-query serving path
		// stays untouched.
		s.metrics.Frames.Inc()
		s.metrics.BytesIn.Add(int64(frameHeaderLen + plen))
		s.metrics.BytesOut.Add(int64(frameHeaderLen + len(resp)))
		bufs.resp = resp[:0]
		fhdr = frameHeader(len(resp))
		if _, err := bw.Write(fhdr[:]); err != nil {
			s.metrics.WriteErrors.Inc()
			return
		}
		if _, err := bw.Write(resp); err != nil {
			s.metrics.WriteErrors.Inc()
			return
		}
		s.Traffic.Charge(2, int64(2*frameHeaderLen+plen+len(resp)), int64(queries))
		pending++
		// Pipelining-aware flush: hold responses while more complete frames
		// are already buffered (one Flush per read-burst), but never hold
		// more than maxPending answers; flush before the next read could
		// block. A flush failure means the peer is gone — close now rather
		// than discovering it one sticky-errored write later.
		if br.Buffered() < frameHeaderLen || pending >= maxPending {
			if err := bw.Flush(); err != nil {
				s.metrics.WriteErrors.Inc()
				return
			}
			pending = 0
			release()
		}
	}
}

// flushFinal is the end-of-connection flush (drain or read error): its
// failure cannot change control flow — the loop is returning either way —
// but it is still counted, so dead-peer writes show up in /metrics instead
// of vanishing.
func (s *Server) flushFinal(bw *bufio.Writer) {
	if err := bw.Flush(); err != nil {
		s.metrics.WriteErrors.Inc()
	}
}

// shouldShed is the per-frame admission decision for query work, one or two
// atomic loads on the hot path. The latch trips when the aggregate queued-
// frame depth passes shedDepth and releases only once the depth has drained
// to half that, so the server does not flap between serving and shedding at
// the boundary.
func (s *Server) shouldShed() bool {
	depth := s.shedDepth
	if depth <= 0 {
		return false
	}
	// The frame asking is itself inside the queued-frame window, so subtract
	// it: the decision is about the *other* work already queued. Without the
	// exclusion a shedDepth of 1 can never release — the asking frame alone
	// holds the gauge above depth/2 = 0 forever.
	q := s.metrics.QueuedFrames.Load() - 1
	if s.shedding.Load() {
		if q <= int64(depth/2) {
			s.shedding.Store(false)
			return false
		}
		return true
	}
	if q > int64(depth) {
		s.shedding.Store(true)
		s.metrics.ShedEvents.Inc()
		return true
	}
	return false
}

// traceCtx is the per-frame trace state serveFrame keeps on the stack:
// zero-valued (two bools, a word) when the frame is untraced and unsampled.
type traceCtx struct {
	remote bool   // request carried a trace context; echo a trace block
	sample bool   // self-selected by the sink's sampler; deposit locally
	id     uint64 // propagated or freshly generated trace id
}

// serveFrame answers one fully-read request payload exactly as the frame
// loop sees it: strip the optional trace context, process the request,
// charge the per-status metrics, and — for traced, sampled or slow frames —
// append the response trace block and deposit the completed trace into the
// sink. start is the instant the payload finished reading; readNs and
// queueNs are the frame's already-measured read and queue-wait stages.
//
// The untraced, unsampled path through here performs zero heap allocations
// (CI-asserted by BenchmarkServeTraceDisabled): the trace state is a stack
// struct, and the SpanTally/Trace records are only materialized inside the
// capture branch.
func (s *Server) serveFrame(req []byte, bufs *connBuffers, start time.Time, readNs, queueNs int64) ([]byte, int) {
	var tc traceCtx
	if len(req) > traceIDLen && req[0]&opTraceFlag != 0 {
		// Strip the trace context in place: overwrite the last id byte with
		// the bare op and re-slice, so process() sees the untraced request
		// shape and its signature stays untouched.
		tc.remote = true
		tc.id = binary.LittleEndian.Uint64(req[1 : 1+traceIDLen])
		req[traceIDLen] = req[0] &^ opTraceFlag
		req = req[traceIDLen:]
	}
	var op byte
	if len(req) > 0 {
		op = req[0]
	}
	sink := s.sink
	if !tc.remote && sink.SampleNow() {
		tc.sample = true
		tc.id = obs.NewTraceID()
	}
	resp, queries := s.process(req, bufs)
	probeNs := int64(time.Since(start))
	switch {
	case len(resp) > 0 && resp[0] == statusErr:
		s.metrics.ErrorFrames.Inc()
	case len(resp) > 0 && resp[0] == statusShed:
		s.metrics.ShedFrames.Inc()
	case queries > 0:
		s.metrics.Queries.Add(int64(queries))
		h := &s.metrics.FrameLatencyNs[batchClass(queries)]
		if tc.id != 0 {
			h.ObserveExemplar(probeNs, tc.id)
		} else {
			h.Observe(probeNs)
		}
		s.observeProbe(op, probeNs, tc.id)
	}
	total := queueNs + readNs + probeNs
	slowNs := sink.SlowThreshold()
	slow := slowNs > 0 && total > slowNs
	if tc.remote || tc.sample || slow {
		var t obs.SpanTally
		t.ID = tc.id
		t.Add(obs.StageQueue, obs.HopSelf, queueNs)
		t.Add(obs.StageRead, obs.HopSelf, readNs)
		t.Add(obs.StageProbe, obs.HopSelf, probeNs)
		if tc.remote && len(resp) > 0 && resp[0] == statusOK {
			// Echo the stages to the caller. Error and shed responses stay
			// byte-identical to the untraced protocol.
			resp[0] |= opTraceFlag
			resp = appendTraceTally(resp, &t)
		}
		if t.ID == 0 {
			t.ID = obs.NewTraceID() // slow-captured but never sampled
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

// observeProbe charges a successful frame's probe time to the serving
// engine's probe histogram, exemplar-stamped when the frame was traced.
func (s *Server) observeProbe(op byte, ns int64, traceID uint64) {
	switch op {
	case opQuery:
		if s.engine != nil {
			s.engine.ObserveProbe(ns, traceID)
		}
	case opDist:
		if s.dist != nil {
			s.dist.ObserveProbe(ns, traceID)
		}
	}
}

// process answers one request payload, appending the response payload to
// bufs.resp (reused from its start) and returning it along with the number of
// adjacency queries answered. Malformed requests and engine errors produce
// error frames; only I/O can kill the connection.
func (s *Server) process(req []byte, bufs *connBuffers) (out []byte, queries int) {
	resp := bufs.resp[:0]
	if len(req) == 0 {
		return appendErr(resp, "empty request"), 0
	}
	op, body := req[0], req[1:]
	switch op {
	case opInfo:
		resp = append(resp, statusOK)
		resp = binary.AppendUvarint(resp, uint64(s.servedN()))
		// Trailing capability advertisement (see the package doc): clients
		// that predate capabilities stop reading after the vertex count.
		return binary.AppendUvarint(resp, localCaps), 0
	case opShardInfo:
		if s.engine == nil {
			// Distance-only server: the trivial 1-shard map with an empty fat
			// set, so a router can admit it into a replica fleet.
			n := s.servedN()
			resp = append(resp, statusOK)
			resp = binary.AppendUvarint(resp, uint64(n))
			resp = binary.AppendUvarint(resp, 1)
			resp = binary.AppendUvarint(resp, 0)
			resp = append(resp, byte(core.ShardRange))
			for i := 0; i < (n+7)/8; i++ {
				resp = append(resp, 0)
			}
			return resp, 0
		}
		// An unsharded engine reports the trivial 1-shard map, so a router can
		// front plain servers with the same handshake.
		m, ok := s.engine.Shard()
		if !ok {
			m = core.ShardMap{Count: 1, Index: 0, Fn: core.ShardRange}
		}
		resp = append(resp, statusOK)
		resp = binary.AppendUvarint(resp, uint64(s.engine.N()))
		resp = binary.AppendUvarint(resp, uint64(m.Count))
		resp = binary.AppendUvarint(resp, uint64(m.Index))
		resp = append(resp, byte(m.Fn))
		return s.engine.AppendFatBits(resp), 0
	case opDist:
		// Shed before touching the payload: under overload the whole point is
		// that a refused frame costs one status byte, not a batch of probes.
		// Info and shard-info frames are never shed — they are O(1) and
		// routers need the handshake to survive an overloaded fleet.
		if s.shouldShed() {
			return appendShed(resp), 0
		}
		if s.dist == nil {
			return appendErr(resp, "server holds no distance engine"), 0
		}
		count, n := binary.Uvarint(body)
		if n <= 0 {
			return appendErr(resp, "bad pair count"), 0
		}
		if count > uint64(s.maxBatch) {
			return appendErr(resp, "batch of %d pairs exceeds limit %d", count, s.maxBatch), 0
		}
		body = body[n:]
		resp = append(resp, statusOK)
		resp = binary.AppendUvarint(resp, count)
		var t core.QueryTally
		for i := 0; i < int(count); i++ {
			u, nu := binary.Uvarint(body)
			if nu <= 0 {
				return appendErr(resp[:0], "pair %d: bad u", i), 0
			}
			body = body[nu:]
			v, nv := binary.Uvarint(body)
			if nv <= 0 {
				return appendErr(resp[:0], "pair %d: bad v", i), 0
			}
			body = body[nv:]
			d, err := s.dist.DistTallied(int(u), int(v), &t)
			if err != nil {
				s.dist.FlushTally(&t, 0)
				return appendErr(resp[:0], "pair %d (%d,%d): %v", i, u, v, err), 0
			}
			resp = binary.AppendUvarint(resp, wireDist(d))
		}
		if len(body) != 0 {
			s.dist.FlushTally(&t, 0)
			return appendErr(resp[:0], "%d trailing bytes after %d pairs", len(body), count), 0
		}
		s.dist.FlushTally(&t, int(count))
		return resp, int(count)
	case opQuery:
		if s.shouldShed() {
			return appendShed(resp), 0
		}
		if s.engine == nil {
			return appendErr(resp, "server holds no adjacency engine"), 0
		}
		count, n := binary.Uvarint(body)
		if n <= 0 {
			return appendErr(resp, "bad pair count"), 0
		}
		if count > uint64(s.maxBatch) {
			return appendErr(resp, "batch of %d pairs exceeds limit %d", count, s.maxBatch), 0
		}
		body = body[n:]
		resp = append(resp, statusOK)
		resp = binary.AppendUvarint(resp, count)
		bitsOff := len(resp)
		for i := 0; i < int(count+7)/8; i++ {
			resp = append(resp, 0)
		}
		// One tally per frame, flushed below: the engine's per-query metric
		// cost on this path is two stack increments (see core.QueryTally).
		var t core.QueryTally
		for i := 0; i < int(count); i++ {
			u, nu := binary.Uvarint(body)
			if nu <= 0 {
				return appendErr(resp[:0], "pair %d: bad u", i), 0
			}
			body = body[nu:]
			v, nv := binary.Uvarint(body)
			if nv <= 0 {
				return appendErr(resp[:0], "pair %d: bad v", i), 0
			}
			body = body[nv:]
			adj, err := s.engine.AdjacentTallied(int(u), int(v), &t)
			if err != nil {
				s.engine.FlushTally(&t, 0)
				return appendErr(resp[:0], "pair %d (%d,%d): %v", i, u, v, err), 0
			}
			if adj {
				resp[bitsOff+i/8] |= 1 << (7 - uint(i)%8)
			}
		}
		if len(body) != 0 {
			s.engine.FlushTally(&t, 0)
			return appendErr(resp[:0], "%d trailing bytes after %d pairs", len(body), count), 0
		}
		s.engine.FlushTally(&t, int(count))
		return resp, int(count)
	default:
		return appendErr(resp, "unknown op %d", op), 0
	}
}

// servedN is the vertex count of whichever plane the server holds (equal when
// it holds both).
func (s *Server) servedN() int {
	if s.engine != nil {
		return s.engine.N()
	}
	return s.dist.N()
}
