package adjserve

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// Server answers adjacency and distance batches from shared read-only
// engines. The engines are immutable, so any number of connection goroutines
// query them with no synchronization at all; the only shared mutable state is
// the front's connection registry and counters. The embedded front runs the
// accept loop, the frame loop and trace capture; the server answers frames.
// Request and response buffers are sync.Pool-backed and reused across every
// frame of a connection, so the steady-state frame loop performs zero heap
// allocations.
type Server struct {
	front

	engine   *core.QueryEngine
	dist     *core.DistEngine
	maxBatch int

	// shedDepth, when > 0, is the aggregate queued-frame bound: while more
	// than shedDepth frames are read-but-unflushed across all connections,
	// new query/dist frames are answered with shed frames (one buffered byte,
	// no engine work) until the depth drains below shedDepth/2. The hysteresis
	// keeps the server from flapping at the boundary; info and shard-info
	// frames are always answered so handshakes survive overload. Set before
	// Serve.
	shedDepth int

	// shedding is the hysteresis latch (see shedDepth); read once per frame.
	// The aggregate queued-frame depth itself lives in metrics.QueuedFrames:
	// frames whose payload has been read but whose response has not yet been
	// flushed, across every connection. Because responses coalesce per
	// read-burst, a connection sitting on a pipelined burst charges the whole
	// burst to the gauge — the queue the shedding bound watches.
	shedding atomic.Bool

	// metrics is the always-on Prometheus-facing instrumentation; see
	// ServerMetrics for what the frame loop charges and why it stays off
	// the per-query path.
	metrics ServerMetrics
}

// NewServer builds a server over an engine. maxBatch caps pairs per frame
// (<= 0 selects DefaultMaxBatch); larger batches are rejected with an error
// frame, not a dropped connection. engine may be nil for a distance-only
// server (SetDistEngine must then install the distance engine before Serve);
// query frames on a plane the server does not hold get an error frame.
func NewServer(engine *core.QueryEngine, maxBatch int) *Server {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	s := &Server{engine: engine, maxBatch: maxBatch}
	s.init(&s.metrics.FrontMetrics, obs.StageProbe, s.openConn)
	return s
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

// SetShedDepth arms load shedding: while more than depth frames are in flight
// across all connections (read but not yet answered), query and dist frames
// are answered with shed frames until the depth drains below depth/2.
// depth <= 0 disables shedding. Must be called before Serve.
func (s *Server) SetShedDepth(depth int) { s.shedDepth = depth }

// SetMaxPendingResponses caps responses coalesced per connection between
// flushes; n <= 0 selects DefaultMaxPendingResponses. Must be called before
// Serve.
func (s *Server) SetMaxPendingResponses(n int) { s.maxPending = n }

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

// connBuffers is the server's per-connection answerer: a pair frame's
// decoded pairs and wire answers, growing to the connection's largest frame
// and then reused for every subsequent frame.
type connBuffers struct {
	s     *Server
	pairs [][2]uint64
	ans   []uint8
}

var bufPool = sync.Pool{New: func() any { return new(connBuffers) }}

func (s *Server) openConn() answerer {
	b := bufPool.Get().(*connBuffers)
	b.s = s
	return b
}

func (b *connBuffers) answer(req, resp []byte, _ *obs.SpanTally) ([]byte, int, *core.EngineMetrics) {
	return b.s.process(req, resp, b)
}

func (b *connBuffers) release() {
	b.s = nil
	bufPool.Put(b)
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

// process answers one request payload, appending the response payload to
// resp and returning it along with the number of pairs answered and the
// metrics of the engine that answered them. Malformed requests and engine
// errors produce error frames; only I/O can kill the connection.
func (s *Server) process(req, resp []byte, bufs *connBuffers) (out []byte, queries int, engine *core.EngineMetrics) {
	if len(req) == 0 {
		return appendErr(resp, "empty request"), 0, nil
	}
	op, body := req[0], req[1:]
	switch op {
	case opInfo:
		resp = append(resp, statusOK)
		resp = binary.AppendUvarint(resp, uint64(s.servedN()))
		// Trailing capability advertisement (see the package doc): clients
		// that predate capabilities stop reading after the vertex count.
		return binary.AppendUvarint(resp, localCaps), 0, nil
	case opShardInfo:
		return s.appendShardInfo(resp), 0, nil
	case opQuery, opDist:
		// Shed before touching the payload: under overload the whole point is
		// that a refused frame costs one status byte, not a batch of probes.
		// Info and shard-info frames are never shed — they are O(1) and
		// routers need the handshake to survive an overloaded fleet.
		if s.shouldShed() {
			return appendShed(resp), 0, nil
		}
		p := planeOf(op)
		switch {
		case p == adjPlane && s.engine != nil:
			m := s.engine.Metrics()
			resp, queries = servePairs(p, resp, body, s.maxBatch, bufs, s.engine, adjWire, m)
			return resp, queries, m
		case p == distPlane && s.dist != nil:
			m := s.dist.Metrics()
			resp, queries = servePairs(p, resp, body, s.maxBatch, bufs, s.dist, distWire, m)
			return resp, queries, m
		}
		return appendErr(resp, "server holds no %s engine", p.name), 0, nil
	default:
		return appendErr(resp, "unknown op %d", op), 0, nil
	}
}

// appendShardInfo answers the shard-info handshake. An unsharded engine
// reports the trivial 1-shard map, so a router can front plain servers with
// the same handshake; a distance-only server adds an empty fat set, so a
// router can admit it into a replica fleet.
func (s *Server) appendShardInfo(resp []byte) []byte {
	m := core.ShardMap{Count: 1, Index: 0, Fn: core.ShardRange}
	if s.engine != nil {
		if sm, ok := s.engine.Shard(); ok {
			m = sm
		}
	}
	n := s.servedN()
	resp = append(resp, statusOK)
	resp = binary.AppendUvarint(resp, uint64(n))
	resp = binary.AppendUvarint(resp, uint64(m.Count))
	resp = binary.AppendUvarint(resp, uint64(m.Index))
	resp = append(resp, byte(m.Fn))
	if s.engine != nil {
		return s.engine.AppendFatBits(resp)
	}
	for i := 0; i < (n+7)/8; i++ {
		resp = append(resp, 0)
	}
	return resp
}

// servePairs is the pair-frame arm for either plane: it decodes the pairs,
// answers each with the plane's kernel into the frame's wire answers, tallies
// the kernel's branches on the stack (one EngineMetrics.Flush per frame, so
// the per-query metric cost is one stack increment), and encodes the answers
// with the plane's codec.
func servePairs[A any, K core.Kernel[A]](p *pairPlane, resp, body []byte, maxBatch int, bufs *connBuffers,
	k K, wire func(A) uint8, m *core.EngineMetrics) ([]byte, int) {
	count, body, err := readPairCount(body, maxBatch)
	if err != nil {
		return appendErr(resp, "%v", err), 0
	}
	pairs, rest, rerr := readPairs(bufs.pairs, body, count)
	bufs.pairs = pairs
	ans := slices.Grow(bufs.ans[:0], len(pairs))[:len(pairs)]
	bufs.ans = ans
	var t core.QueryTally
	for i, pr := range pairs {
		a, b, err := k.Probe(int(pr[0]), int(pr[1]))
		t.Add(b)
		if err != nil {
			m.Flush(&t, 0)
			return appendErr(resp, "pair %d (%d,%d): %v", i, pr[0], pr[1], err), 0
		}
		ans[i] = wire(a)
	}
	switch {
	case rerr != nil:
		m.Flush(&t, 0)
		return appendErr(resp, "%v", rerr), 0
	case len(rest) != 0:
		m.Flush(&t, 0)
		return appendErr(resp, "%d trailing bytes after %d pairs", len(rest), count), 0
	}
	m.Flush(&t, count)
	resp = append(resp, statusOK)
	resp = binary.AppendUvarint(resp, uint64(count))
	return p.appendAnswers(resp, ans), count
}

// servedN is the vertex count of whichever plane the server holds (equal when
// it holds both).
func (s *Server) servedN() int {
	if s.engine != nil {
		return s.engine.N()
	}
	return s.dist.N()
}
