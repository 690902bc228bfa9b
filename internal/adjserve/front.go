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

// front is the serving front both tiers embed: the listener, connection
// registry, admission cap and drain; the one frame loop; the one
// trace-capture wrapper; and the downstream metrics. A tier supplies only how
// a frame is answered — Server from its engines, Router by fanning the frame
// out to its upstreams — through the per-connection answerer that open
// returns. Nothing here depends on which tier it fronts: the tier's coarse
// work stage and its metric block are data handed over at construction.
type front struct {
	m     *FrontMetrics
	stage uint8           // the tier's coarse work stage (obs.StageProbe or obs.StageUpstream)
	open  func() answerer // one connection's answerer

	// maxConns, when > 0, caps concurrently open client connections: an
	// accept past the cap is answered with one shed frame and closed, so a
	// protocol-speaking client sees ErrShed on its next call instead of a
	// bare RST. Set before Serve.
	maxConns int

	// maxPending, when > 0, caps responses coalesced into a connection's
	// write buffer before a forced Flush. Coalescing amortizes one syscall
	// over a read-burst of pipelined frames; the cap bounds both the latency
	// a buffered answer can sit unflushed and — because Flush blocks when the
	// client stops reading — the per-connection buffered state. 0 selects
	// DefaultMaxPendingResponses.
	maxPending int

	// sink, when non-nil, collects completed traces: frames that arrived
	// with a trace context, frames self-selected by the sink's sampler, and
	// frames over the slow threshold. Set before Serve; a nil sink still
	// echoes trace blocks to remotely-traced frames (the capability is
	// protocol-level, collection is per-daemon policy).
	sink *obs.TraceSink

	// Traffic accounts wire bytes, frames (as message pairs) and answered
	// queries in the same units as the peernet simulation.
	Traffic peernet.Traffic

	// draining is read by every connection's frame loop once per frame, so it
	// is an atomic rather than a field under mu (the mutex protects only the
	// connection registry).
	draining atomic.Bool

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// answerer is one connection's tier-specific frame answerer, holding the
// tier's per-connection scratch (and, for a router, its upstream workers).
type answerer interface {
	// answer appends the response to one untraced request payload to resp
	// and returns it with the number of pairs answered and the metrics of
	// the local engine that answered them (nil if none did). A non-nil tp
	// marks a frame captured before it was answered; the answerer may record
	// its own finer stages there.
	answer(req, resp []byte, tp *obs.SpanTally) ([]byte, int, *core.EngineMetrics)
	// release returns the scratch and stops the workers once the
	// connection is done.
	release()
}

// DefaultMaxPendingResponses is the per-connection coalescing bound when
// Server.SetMaxPendingResponses is unset: how many answered frames may sit in
// the write buffer before the front forces a Flush.
const DefaultMaxPendingResponses = 64

func (f *front) init(m *FrontMetrics, stage uint8, open func() answerer) {
	f.m, f.stage, f.open = m, stage, open
	f.conns = make(map[net.Conn]struct{})
}

// SetMaxConns caps concurrently open client connections; n <= 0 means
// unlimited. A connection accepted past the cap is answered with a single
// shed frame and closed (counted in ConnsShed), so load generators and
// routers observe ErrShed rather than a connection reset. Must be called
// before Serve.
func (f *front) SetMaxConns(n int) { f.maxConns = n }

// SetTraceSink installs the trace collection point (sampling policy, trace
// ring, slow-frame log). nil disables collection; trace blocks are still
// echoed to traced requests. Must be called before Serve.
func (f *front) SetTraceSink(sink *obs.TraceSink) { f.sink = sink }

// Serve accepts connections on ln until Close, answering each connection's
// frames in order on its own goroutine. It returns ErrClosed after Close, or
// the first accept error otherwise.
func (f *front) Serve(ln net.Listener) error {
	f.mu.Lock()
	if f.draining.Load() {
		// Close raced ahead of us and never saw this listener; close it here
		// or it would keep accepting handshakes into the kernel backlog that
		// no goroutine will ever answer.
		f.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	f.ln = ln
	f.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if f.draining.Load() {
				return ErrClosed
			}
			return err
		}
		f.mu.Lock()
		if f.draining.Load() {
			f.mu.Unlock()
			c.Close()
			continue
		}
		if f.maxConns > 0 && len(f.conns) >= f.maxConns {
			// Admission control: the cap protects the connections already
			// admitted. The rejection is answered off the accept loop so a
			// slow or dead peer cannot stall further accepts.
			f.mu.Unlock()
			f.m.ConnsShed.Inc()
			go refuseConn(c)
			continue
		}
		f.conns[c] = struct{}{}
		f.wg.Add(1)
		f.mu.Unlock()
		go f.handle(c)
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
func (f *front) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return f.Serve(ln)
}

// Close drains the front: the listener stops accepting, every connection
// finishes the frame it is answering (pending responses are flushed), and
// Close returns once all connection goroutines have exited. Frames a
// pipelining client had buffered beyond the in-flight one are dropped with
// the connection; clients recover by reconnecting. Close is idempotent.
func (f *front) Close() error {
	f.mu.Lock()
	if !f.draining.CompareAndSwap(false, true) {
		f.mu.Unlock()
		f.wg.Wait()
		return nil
	}
	ln := f.ln
	// Wake handlers blocked in a read; they observe draining and exit after
	// flushing whatever they already answered.
	for c := range f.conns {
		c.SetReadDeadline(time.Now())
	}
	f.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	f.wg.Wait()
	return err
}

// frameBufs is the frame loop's pooled per-connection scratch: the request
// and response payloads, grown to the connection's largest frame and reused
// for every later one, and the tally of a captured frame, kept here rather
// than on the stack because it crosses the answerer interface.
type frameBufs struct {
	req, resp []byte
	tally     obs.SpanTally
}

var framePool = sync.Pool{New: func() any { return new(frameBufs) }}

// handle runs one connection's frame loop.
func (f *front) handle(c net.Conn) {
	f.m.ConnsTotal.Inc()
	f.m.ConnsActive.Add(1)
	defer func() {
		f.m.ConnsActive.Add(-1)
		f.mu.Lock()
		delete(f.conns, c)
		f.mu.Unlock()
		c.Close()
		f.wg.Done()
	}()
	a := f.open()
	defer a.release()
	bufs := framePool.Get().(*frameBufs)
	defer framePool.Put(bufs)
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	maxPending := f.maxPending
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
	// frame being answered) is what makes the gauge a real queue-depth
	// signal — a connection sitting on eight pipelined frames is eight frames
	// of backlog even though only one is on the CPU.
	queued := 0
	release := func() {
		if queued > 0 {
			f.m.QueuedFrames.Add(int64(-queued))
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
		if f.draining.Load() {
			f.flushFinal(bw)
			return
		}
		waiting := br.Buffered() >= frameHeaderLen
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// EOF (client went away), the Close wake-up deadline, or a torn
			// header; nothing more to answer either way.
			f.flushFinal(bw)
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
			f.m.ErrorFrames.Inc()
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
			// connections it is the depth a server's shedding bound compares
			// against.
			f.m.QueuedFrames.Add(1)
			queued++
			tPayload := time.Now()
			resp, queries = f.serveFrame(a, bufs, req, tPayload,
				int64(tPayload.Sub(tHdr)), int64(tHdr.Sub(burstStart)))
		}
		// Frame-granular accounting: a few uncontended atomic adds per
		// frame, amortized over the whole batch — the per-query path stays
		// untouched.
		f.m.Frames.Inc()
		f.m.BytesIn.Add(int64(frameHeaderLen + plen))
		f.m.BytesOut.Add(int64(frameHeaderLen + len(resp)))
		bufs.resp = resp[:0]
		fhdr = frameHeader(len(resp))
		if _, err := bw.Write(fhdr[:]); err != nil {
			f.m.WriteErrors.Inc()
			return
		}
		if _, err := bw.Write(resp); err != nil {
			f.m.WriteErrors.Inc()
			return
		}
		f.Traffic.Charge(2, int64(2*frameHeaderLen+plen+len(resp)), int64(queries))
		pending++
		// Pipelining-aware flush: hold responses while more complete frames
		// are already buffered (one Flush per read-burst), but never hold
		// more than maxPending answers; flush before the next read could
		// block. A flush failure means the peer is gone — close now rather
		// than discovering it one sticky-errored write later.
		if br.Buffered() < frameHeaderLen || pending >= maxPending {
			if err := bw.Flush(); err != nil {
				f.m.WriteErrors.Inc()
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
func (f *front) flushFinal(bw *bufio.Writer) {
	if err := bw.Flush(); err != nil {
		f.m.WriteErrors.Inc()
	}
}

// traceCtx is the per-frame trace state serveFrame keeps on the stack:
// zero-valued (two bools, a word) when the frame is untraced and unsampled.
type traceCtx struct {
	remote bool   // request carried a trace context; echo a trace block
	sample bool   // self-selected by the sink's sampler; deposit locally
	id     uint64 // propagated or freshly generated trace id
}

// serveFrame answers one fully-read request payload exactly as the frame
// loop sees it: strip the optional trace context, have a answer the request,
// charge the per-status metrics, and — for traced, sampled or slow frames —
// append the response trace block and deposit the completed trace into the
// sink. start is the instant the payload finished reading; readNs and
// queueNs are the frame's already-measured read and queue-wait stages.
//
// A captured frame's stages are whatever finer stages the answerer recorded
// (a router's scatter, upstream and gather windows and its upstreams'
// reports) followed by queue and read; when the answerer recorded none — a
// server always, a router on a slow-only capture — the whole answer window
// is charged to the tier's coarse work stage after them.
//
// The untraced, unsampled path through here performs zero heap allocations
// (CI-asserted by BenchmarkServeTraceDisabled): the trace state is a stack
// struct, and the tally and Trace records are only touched inside the
// capture branch.
func (f *front) serveFrame(a answerer, bufs *frameBufs, req []byte, start time.Time, readNs, queueNs int64) ([]byte, int) {
	var tc traceCtx
	if len(req) > traceIDLen && req[0]&opTraceFlag != 0 {
		// Strip the trace context in place: overwrite the last id byte with
		// the bare op and re-slice, so the answerer sees the untraced request
		// shape.
		tc.remote = true
		tc.id = binary.LittleEndian.Uint64(req[1 : 1+traceIDLen])
		req[traceIDLen] = req[0] &^ opTraceFlag
		req = req[traceIDLen:]
	}
	var op byte
	if len(req) > 0 {
		op = req[0]
	}
	sink := f.sink
	if !tc.remote && sink.SampleNow() {
		tc.sample = true
		tc.id = obs.NewTraceID()
	}
	t := &bufs.tally
	var tp *obs.SpanTally
	if tc.remote || tc.sample {
		t.Reset()
		t.ID = tc.id
		tp = t
	}
	resp, queries, engine := a.answer(req, bufs.resp[:0], tp)
	workNs := int64(time.Since(start))
	switch {
	case len(resp) > 0 && resp[0] == statusErr:
		f.m.ErrorFrames.Inc()
	case len(resp) > 0 && resp[0] == statusShed:
		f.m.ShedFrames.Inc()
	case queries > 0:
		f.m.Queries.Add(int64(queries))
		h := &f.m.FrameLatencyNs[batchClass(queries)]
		if tc.id != 0 {
			h.ObserveExemplar(workNs, tc.id)
		} else {
			h.Observe(workNs)
		}
		engine.ObserveProbe(workNs, tc.id)
	}
	total := queueNs + readNs + workNs
	slowNs := sink.SlowThreshold()
	slow := slowNs > 0 && total > slowNs
	if tc.remote || tc.sample || slow {
		if tp == nil {
			t.Reset() // slow-only: captured after the fact, nothing recorded yet
		}
		detail := t.Len() > 0
		t.Add(obs.StageQueue, obs.HopSelf, queueNs)
		t.Add(obs.StageRead, obs.HopSelf, readNs)
		if !detail {
			t.Add(f.stage, obs.HopSelf, workNs)
		}
		if tc.remote {
			resp = echoTrace(resp, op, t)
		}
		if t.ID == 0 {
			t.ID = obs.NewTraceID() // slow-captured but never sampled
		}
		var tr obs.Trace
		tr.Fill(t, op, queries, total)
		if tc.remote || tc.sample {
			sink.Deposit(&tr)
		}
		if slow {
			sink.DepositSlow(&tr)
		}
	}
	return resp, queries
}
