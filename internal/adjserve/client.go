package adjserve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Redial policy defaults. A lost connection is redialed transparently, but
// not forever: attempts are capped and spaced by exponential backoff, so a
// dead server surfaces as an error carrying the last dial failure instead of
// an infinitely retrying call.
const (
	// DefaultMaxDialAttempts is the consecutive dial-attempt cap per
	// reconnect when Client.MaxDialAttempts is unset.
	DefaultMaxDialAttempts = 4
	// DefaultRedialBackoff is the initial inter-attempt backoff when
	// Client.RedialBackoff is unset; it doubles per failure up to
	// maxRedialBackoff.
	DefaultRedialBackoff = 25 * time.Millisecond
	maxRedialBackoff     = 1 * time.Second
)

// Client is a pipelining client for one adjacency server. A batch call
// splits its pairs into frames of at most MaxBatch, writes them all before
// reading any response, and lets the server's in-order answering match
// responses back up — so one TCP round trip covers an arbitrarily large
// batch. Calls are safe for concurrent goroutines, which share (and
// pipeline over) a single connection; if the connection dies, the next call
// transparently redials — bounded by MaxDialAttempts with exponential
// backoff, so a dead server surfaces as the last dial error rather than a
// silent retry loop.
type Client struct {
	// MaxBatch caps pairs per request frame (<= 0 selects DefaultMaxBatch).
	// It must not exceed the server's limit or batches above that limit are
	// rejected remotely.
	MaxBatch int

	// MaxDialAttempts caps consecutive dial attempts per reconnect (<= 0
	// selects DefaultMaxDialAttempts). After that many consecutive failures
	// the triggering call returns the last dial error.
	MaxDialAttempts int

	// RedialBackoff is the initial delay between dial attempts (<= 0
	// selects DefaultRedialBackoff), doubling per consecutive failure up to
	// one second with ±20% jitter per sleep. The backoff sleeps while holding
	// the client's connection lock, so concurrent calls wait out the same
	// reconnect rather than piling up their own dial storms; the jitter keeps
	// a fleet of such clients (plroute holds one per shard) from
	// synchronizing their reconnect storms after a shared server restart.
	RedialBackoff time.Duration

	// DialFunc, when non-nil, replaces net.Dial("tcp", addr) for every
	// connection this client establishes. It is the hook chaos harnesses use
	// to interpose throttled or fault-injecting connections (plload's
	// slow-client mode) without the client growing transport knowledge. Set
	// before the first call; never mutated afterwards.
	DialFunc func(addr string) (net.Conn, error)

	addr string
	mu   sync.Mutex // guards conn lifecycle and interleaves frame writes
	cc   *clientConn
	req  []byte // pooled request-encoding buffer, guarded by mu

	everConnected bool // a redial (vs first dial) is a reconnect, for metrics
	metrics       ClientMetrics

	// caps caches the server's advertised capability bits (guarded by mu);
	// capsKnown distinguishes "no capabilities" from "never asked". Fetched
	// lazily by Caps with one info round trip and kept for the client's
	// lifetime — capabilities describe the server build, not the connection.
	caps      uint64
	capsKnown bool

	// sleep and jitterFloat are the backoff clock and jitter source,
	// swappable by tests (fake clock, deterministic rand); nil selects
	// time.Sleep and a lazily seeded rand.Float64. Guarded by mu like the
	// backoff itself.
	sleep       func(time.Duration)
	jitterFloat func() float64
	jitterRNG   *rand.Rand
}

// backoffJitterFrac is the redial jitter amplitude: each backoff sleep is
// scaled by a factor drawn uniformly from [1-frac, 1+frac].
const backoffJitterFrac = 0.2

// jitterBackoff scales d by the client's jitter source. Exposed as a method
// so the fake-clock test exercises exactly the production path.
func (c *Client) jitterBackoff(d time.Duration) time.Duration {
	if c.jitterFloat == nil {
		if c.jitterRNG == nil {
			c.jitterRNG = rand.New(rand.NewSource(time.Now().UnixNano()))
		}
		c.jitterFloat = c.jitterRNG.Float64
	}
	f := 1 - backoffJitterFrac + 2*backoffJitterFrac*c.jitterFloat()
	return time.Duration(float64(d) * f)
}

// NewClient returns a client that dials lazily: the first call establishes
// the connection (with the same bounded-retry policy as any redial). Useful
// when the server may come up after the client, or to configure the redial
// knobs before any network traffic.
func NewClient(addr string) *Client { return &Client{addr: addr} }

// Dial connects to an adjacency server eagerly, returning the first
// connection error (after the client's bounded retry policy) instead of
// deferring it to the first call.
func Dial(addr string) (*Client, error) {
	c := NewClient(addr)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.ensureConn(); err != nil {
		return nil, err
	}
	return c, nil
}

// Metrics returns the client's instrumentation, for registering on an
// obs.Registry (c.Metrics().Register(reg)) or reading in tests.
func (c *Client) Metrics() *ClientMetrics { return &c.metrics }

// Close tears down the connection. In-flight calls fail with ErrClosed;
// subsequent calls redial.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cc != nil {
		c.cc.nc.Close()
		c.cc = nil
	}
	return nil
}

// call is one outstanding request: the response fills dest (query), dists
// (dist), infoN (info) or shard (shard-info), and done delivers the per-call
// verdict exactly once. tr, when non-nil, receives the response's trace
// block (the reader goroutine writes it strictly before the done send, so
// the waiting caller reads it race-free); caps, when non-nil, receives the
// info response's trailing capability bits.
type call struct {
	dest  []bool
	dists []int
	infoN *int
	shard *ShardInfo
	tr    *obs.SpanTally
	caps  *uint64
	done  chan error
}

// callPool recycles calls (and their verdict channels) across batches, so the
// steady-state encode path of AdjacentMany performs zero heap allocations.
var callPool = sync.Pool{New: func() any { return &call{done: make(chan error, 1)} }}

func getCall() *call { return callPool.Get().(*call) }

// putCall returns a call to the pool. Callers normally hand back a call whose
// verdict they consumed; the non-blocking drain covers the one exception — a
// send-side failure where fail() already buffered the verdict nobody reads —
// so a recycled call can never surface a stale verdict.
func putCall(ca *call) {
	select {
	case <-ca.done:
	default:
	}
	ca.dest = nil
	ca.dists = nil
	ca.infoN = nil
	ca.shard = nil
	ca.tr = nil
	ca.caps = nil
	callPool.Put(ca)
}

// callsPool recycles the per-batch slice of outstanding calls.
var callsPool = sync.Pool{New: func() any { return new(callList) }}

type callList struct{ s []*call }

// clientConn is one live connection plus its FIFO of outstanding calls. The
// reader goroutine owns the receive side; writers enqueue under the queue
// lock, so a call is either matched by the reader or failed at shutdown —
// never lost.
type clientConn struct {
	nc      net.Conn
	bw      *bufio.Writer
	metrics *ClientMetrics // owning client's, for in-flight accounting
	// hdr is the frame-header encode scratch, shared by all frame writers
	// under the client's mu. A function-local array would be re-heap-allocated
	// per frame (bufio may hand large writes straight to the net.Conn
	// interface, so the slice argument escapes).
	hdr [frameHeaderLen]byte

	qmu sync.Mutex
	// pending[head:] is the FIFO of outstanding calls. Popping advances head
	// instead of re-slicing, and the slice resets to its start whenever the
	// queue drains, so the backing array is reused frame after frame — the
	// enqueue path allocates only while the pipelining depth is still growing.
	pending  []*call
	head     int
	shutdown bool
	err      error
}

func (cc *clientConn) enqueue(ca *call) error {
	cc.qmu.Lock()
	defer cc.qmu.Unlock()
	if cc.shutdown {
		return cc.err
	}
	cc.pending = append(cc.pending, ca)
	cc.metrics.InFlight.Add(1)
	return nil
}

func (cc *clientConn) pop() *call {
	cc.qmu.Lock()
	defer cc.qmu.Unlock()
	if cc.head == len(cc.pending) {
		return nil
	}
	ca := cc.pending[cc.head]
	cc.pending[cc.head] = nil
	cc.head++
	if cc.head == len(cc.pending) {
		cc.pending = cc.pending[:0]
		cc.head = 0
	}
	cc.metrics.InFlight.Add(-1)
	return ca
}

// fail marks the connection dead and delivers err to every outstanding call.
func (cc *clientConn) fail(err error) {
	cc.qmu.Lock()
	if cc.shutdown {
		cc.qmu.Unlock()
		return
	}
	cc.shutdown = true
	cc.err = err
	pending := cc.pending[cc.head:]
	cc.pending = nil
	cc.head = 0
	cc.metrics.InFlight.Add(-int64(len(pending)))
	cc.qmu.Unlock()
	cc.nc.Close()
	for _, ca := range pending {
		ca.done <- err
	}
}

// ensureConn returns the live connection, dialing a fresh one if the
// previous connection has shut down. A reconnect tries at most
// MaxDialAttempts dials with exponential backoff between them and then
// surfaces the last dial error — transparent redial is bounded, never an
// infinite silent retry. Callers hold c.mu, so one caller performs the
// reconnect while the rest queue behind it.
func (c *Client) ensureConn() (*clientConn, error) {
	if c.cc != nil {
		c.cc.qmu.Lock()
		dead := c.cc.shutdown
		c.cc.qmu.Unlock()
		if !dead {
			return c.cc, nil
		}
		c.cc = nil
	}
	attempts := c.MaxDialAttempts
	if attempts <= 0 {
		attempts = DefaultMaxDialAttempts
	}
	backoff := c.RedialBackoff
	if backoff <= 0 {
		backoff = DefaultRedialBackoff
	}
	dial := c.DialFunc
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	sleep := c.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			sleep(c.jitterBackoff(backoff))
			if backoff *= 2; backoff > maxRedialBackoff {
				backoff = maxRedialBackoff
			}
		}
		c.metrics.DialAttempts.Inc()
		nc, err := dial(c.addr)
		if err != nil {
			c.metrics.DialFailures.Inc()
			lastErr = err
			continue
		}
		if c.everConnected {
			c.metrics.Redials.Inc()
		}
		c.everConnected = true
		cc := &clientConn{nc: nc, bw: bufio.NewWriterSize(nc, 64<<10), metrics: &c.metrics}
		go cc.readLoop()
		c.cc = cc
		return cc, nil
	}
	return nil, fmt.Errorf("adjserve: dial %s: %d consecutive failures, last: %w", c.addr, attempts, lastErr)
}

// readLoop receives response frames and delivers them to calls in FIFO
// order. Any framing violation or I/O error kills the connection and fails
// everything outstanding.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.nc, 64<<10)
	var hdr [frameHeaderLen]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		plen := int(binary.LittleEndian.Uint32(hdr[:]))
		if plen > maxFramePayload {
			cc.fail(fmt.Errorf("%w: response frame of %d bytes", ErrClosed, plen))
			return
		}
		if cap(payload) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		cc.metrics.BytesIn.Add(int64(frameHeaderLen + plen))
		if plen > 0 && payload[0] == statusShed {
			cc.metrics.ShedFrames.Inc()
		}
		ca := cc.pop()
		if ca == nil {
			cc.fail(fmt.Errorf("%w: unsolicited response frame", ErrClosed))
			return
		}
		if err := deliver(ca, payload); err != nil {
			ca.done <- err
			cc.fail(err)
			return
		}
	}
}

// deliver parses one response payload into its call. A non-nil return is a
// protocol-level corruption that must kill the connection; per-call server
// errors are delivered through the call and return nil.
func deliver(ca *call, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty response", ErrClosed)
	}
	status, body := payload[0], payload[1:]
	// A traced OK response echoes opTraceFlag on the status byte and appends
	// a trace block after the normal body; strip the flag here and hand the
	// block to the per-shape parsers below (old servers never set the bit).
	traced := status&opTraceFlag != 0
	status &^= opTraceFlag
	switch status {
	case statusShed:
		// The server refused the request under load; the connection stays up
		// (unless the shed answered an admission rejection, in which case the
		// server closes it right after and the next call redials). The single
		// package-level ErrShed keeps this path allocation-free.
		ca.done <- ErrShed
		return nil
	case statusErr:
		msgLen, n := binary.Uvarint(body)
		if n <= 0 || uint64(len(body)-n) < msgLen {
			return fmt.Errorf("%w: truncated error frame", ErrClosed)
		}
		ca.done <- &RemoteError{Msg: string(body[n : n+int(msgLen)])}
		return nil
	case statusOK:
		if ca.infoN != nil {
			v, n := binary.Uvarint(body)
			if n <= 0 {
				return fmt.Errorf("%w: truncated info response", ErrClosed)
			}
			*ca.infoN = int(v)
			// Optional trailing capability uvarint: absent on servers that
			// predate capabilities (which means "none"); any bytes beyond it
			// belong to future extensions and are ignored the same way.
			if ca.caps != nil {
				*ca.caps = 0
				if rest := body[n:]; len(rest) > 0 {
					if cv, k := binary.Uvarint(rest); k > 0 {
						*ca.caps = cv
					}
				}
			}
			ca.done <- nil
			return nil
		}
		if ca.shard != nil {
			if err := parseShardInfo(ca.shard, body); err != nil {
				return err
			}
			ca.done <- nil
			return nil
		}
		if ca.dists != nil {
			count, n := binary.Uvarint(body)
			if n <= 0 || int(count) != len(ca.dists) {
				return fmt.Errorf("%w: response for %d pairs, asked %d", ErrClosed, count, len(ca.dists))
			}
			body = body[n:]
			for i := range ca.dists {
				d, k := binary.Uvarint(body)
				if k <= 0 {
					return fmt.Errorf("%w: truncated distance %d of %d", ErrClosed, i, count)
				}
				body = body[k:]
				if d > distBeyondWire {
					return fmt.Errorf("%w: distance %d out of wire range", ErrClosed, d)
				}
				if d == distBeyondWire {
					ca.dists[i] = graph.Unreachable
				} else {
					ca.dists[i] = int(d)
				}
			}
			if traced {
				if err := deliverTrace(ca, body); err != nil {
					return err
				}
			} else if len(body) != 0 {
				return fmt.Errorf("%w: %d trailing bytes after %d distances", ErrClosed, len(body), count)
			}
			ca.done <- nil
			return nil
		}
		count, n := binary.Uvarint(body)
		if n <= 0 || int(count) != len(ca.dest) {
			return fmt.Errorf("%w: response for %d pairs, asked %d", ErrClosed, count, len(ca.dest))
		}
		bits := body[n:]
		need := (len(ca.dest) + 7) / 8
		if traced {
			if len(bits) < need {
				return fmt.Errorf("%w: %d answer bytes for %d pairs", ErrClosed, len(bits), len(ca.dest))
			}
			if err := deliverTrace(ca, bits[need:]); err != nil {
				return err
			}
			bits = bits[:need]
		} else if len(bits) != need {
			return fmt.Errorf("%w: %d answer bytes for %d pairs", ErrClosed, len(bits), len(ca.dest))
		}
		for i := range ca.dest {
			ca.dest[i] = bits[i/8]&(1<<(7-uint(i)%8)) != 0
		}
		ca.done <- nil
		return nil
	default:
		return fmt.Errorf("%w: unknown response status %d", ErrClosed, status)
	}
}

// deliverTrace merges a response's appended trace block into the call's
// tally, relabeling the peer's own stages to HopPeer (shard-labeled stages a
// router gathered pass through). A call that didn't ask for tracing still
// validates and discards the block, keeping the framing check total.
func deliverTrace(ca *call, block []byte) error {
	if ca.tr == nil {
		var discard obs.SpanTally
		return parseTraceBlock(block, &discard, obs.HopPeer)
	}
	return parseTraceBlock(block, ca.tr, obs.HopPeer)
}

// sendFrame enqueues ca and writes one frame. Callers hold c.mu, so frames
// from concurrent callers interleave at whole-frame granularity, matching
// the FIFO. The write is buffered; the caller flushes after its last frame.
func (c *Client) sendFrame(cc *clientConn, payload []byte, ca *call) error {
	if err := cc.enqueue(ca); err != nil {
		return err
	}
	c.metrics.FramesSent.Inc()
	c.metrics.BytesOut.Add(int64(frameHeaderLen + len(payload)))
	cc.hdr = frameHeader(len(payload))
	if _, err := cc.bw.Write(cc.hdr[:]); err != nil {
		cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
		return err
	}
	if _, err := cc.bw.Write(payload); err != nil {
		cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
		return err
	}
	return nil
}

// AdjacentMany answers a batch of queries remotely, appending one result per
// pair to out (same contract as core.QueryEngine.AdjacentMany). The batch is
// split into pipelined frames of at most MaxBatch pairs; answers land in
// pair order. On any error the appended results must not be trusted.
func (c *Client) AdjacentMany(pairs [][2]int, out []bool) ([]bool, error) {
	start := len(out)
	if need := start + len(pairs); cap(out) >= need {
		out = out[:need]
	} else {
		grown := make([]bool, need)
		copy(grown, out)
		out = grown
	}
	if len(pairs) == 0 {
		return out, nil
	}
	dest := out[start:]
	maxBatch := c.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}

	c.mu.Lock()
	cc, err := c.ensureConn()
	if err != nil {
		c.mu.Unlock()
		return out[:start], err
	}
	cl := callsPool.Get().(*callList)
	calls := cl.s[:0]
	for off := 0; off < len(pairs); off += maxBatch {
		chunk := pairs[off:min(off+maxBatch, len(pairs))]
		c.req = appendQueryReq(c.req[:0], chunk)
		ca := getCall()
		ca.dest = dest[off : off+len(chunk)]
		if err := c.sendFrame(cc, c.req, ca); err != nil {
			c.mu.Unlock()
			putCall(ca)
			waitCalls(calls)
			putCalls(cl, calls)
			return out[:start], err
		}
		calls = append(calls, ca)
	}
	if err := cc.bw.Flush(); err != nil {
		cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
	}
	c.mu.Unlock()

	for _, ca := range calls {
		if cerr := <-ca.done; cerr != nil && err == nil {
			err = cerr
		}
	}
	putCalls(cl, calls)
	if err != nil {
		return out[:start], err
	}
	return out, nil
}

// waitCalls drains calls that were already enqueued when a later frame
// failed; their verdicts (delivered by the reader or by fail) are discarded.
func waitCalls(calls []*call) {
	for _, ca := range calls {
		<-ca.done
	}
}

// putCalls recycles a batch's calls (verdicts already consumed) and its list.
func putCalls(cl *callList, calls []*call) {
	for _, ca := range calls {
		putCall(ca)
	}
	cl.s = calls[:0]
	callsPool.Put(cl)
}

// Adjacent answers a single query remotely. For throughput, prefer
// AdjacentMany — one frame per call is the naive baseline E23 measures
// against.
func (c *Client) Adjacent(u, v int) (bool, error) {
	var res [1]bool
	if _, err := c.AdjacentMany([][2]int{{u, v}}, res[:0]); err != nil {
		return false, err
	}
	return res[0], nil
}

// DistMany answers a batch of distance queries remotely, appending one hop
// distance per pair to out (same contract as core.DistEngine.DistMany:
// graph.Unreachable for unreachable or beyond-bound pairs). Batches split,
// pipeline and recover exactly as AdjacentMany's do. Distances of 255 or more
// are indistinguishable from unreachable on the wire; see the package doc.
func (c *Client) DistMany(pairs [][2]int, out []int) ([]int, error) {
	start := len(out)
	if need := start + len(pairs); cap(out) >= need {
		out = out[:need]
	} else {
		grown := make([]int, need)
		copy(grown, out)
		out = grown
	}
	if len(pairs) == 0 {
		return out, nil
	}
	dest := out[start:]
	maxBatch := c.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}

	c.mu.Lock()
	cc, err := c.ensureConn()
	if err != nil {
		c.mu.Unlock()
		return out[:start], err
	}
	cl := callsPool.Get().(*callList)
	calls := cl.s[:0]
	for off := 0; off < len(pairs); off += maxBatch {
		chunk := pairs[off:min(off+maxBatch, len(pairs))]
		c.req = appendPairsReq(c.req[:0], opDist, chunk)
		ca := getCall()
		ca.dists = dest[off : off+len(chunk)]
		if err := c.sendFrame(cc, c.req, ca); err != nil {
			c.mu.Unlock()
			putCall(ca)
			waitCalls(calls)
			putCalls(cl, calls)
			return out[:start], err
		}
		calls = append(calls, ca)
	}
	if err := cc.bw.Flush(); err != nil {
		cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
	}
	c.mu.Unlock()

	for _, ca := range calls {
		if cerr := <-ca.done; cerr != nil && err == nil {
			err = cerr
		}
	}
	putCalls(cl, calls)
	if err != nil {
		return out[:start], err
	}
	return out, nil
}

// Dist answers a single distance query remotely (graph.Unreachable for
// unreachable or beyond-bound pairs). For throughput, prefer DistMany.
func (c *Client) Dist(u, v int) (int, error) {
	var res [1]int
	if _, err := c.DistMany([][2]int{{u, v}}, res[:0]); err != nil {
		return 0, err
	}
	return res[0], nil
}

// Caps returns the capability bits the server advertises in its info
// response (capTrace and future extensions), performing one info round trip
// on first use and caching the answer for the client's lifetime. Servers
// that predate capabilities advertise none, so a zero return against a
// reachable server means "speak the base protocol only".
func (c *Client) Caps() (uint64, error) {
	c.mu.Lock()
	if c.capsKnown {
		caps := c.caps
		c.mu.Unlock()
		return caps, nil
	}
	c.mu.Unlock()
	var n int
	var caps uint64
	ca := getCall()
	ca.infoN = &n
	ca.caps = &caps
	if err := c.sendSmall(opInfo, ca); err != nil {
		putCall(ca)
		return 0, err
	}
	err := <-ca.done
	putCall(ca)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.caps, c.capsKnown = caps, true
	c.mu.Unlock()
	return caps, nil
}

// supportsTrace reports whether the server advertises the trace capability,
// fetching capabilities on first use. A probe error means "no" — the traced
// call that asked will surface the real error on its own frames.
func (c *Client) supportsTrace() bool {
	caps, err := c.Caps()
	return err == nil && caps&capTrace != 0
}

// AdjacentManyTrace is AdjacentMany with end-to-end tracing. When the server
// advertises the trace capability, every request frame carries t.ID
// (generated if zero), each hop's stage report is merged into t — the direct
// peer's own stages relabeled HopPeer, shard-labeled stages from a router
// passing through — and the client appends its own encode and flush stages
// plus the residual net stage (wall time minus everything else attributed),
// so on success the HopSelf+HopPeer stages in t sum exactly to the call's
// wall time. Against a server without the capability the batch is sent
// untraced and t records the client-side stages only.
func (c *Client) AdjacentManyTrace(pairs [][2]int, out []bool, t *obs.SpanTally) ([]bool, error) {
	if t == nil {
		return c.AdjacentMany(pairs, out)
	}
	return c.manyTrace(pairs, out, t)
}

// DistManyTrace is DistMany with end-to-end tracing; same contract as
// AdjacentManyTrace.
func (c *Client) DistManyTrace(pairs [][2]int, out []int, t *obs.SpanTally) ([]int, error) {
	if t == nil {
		return c.DistMany(pairs, out)
	}
	return c.manyTraceDist(pairs, out, t)
}

// manyTrace runs one traced adjacency batch: AdjacentMany's chunking,
// pipelining and failure handling, plus per-call stage measurement around
// the encode loop and the flush.
func (c *Client) manyTrace(pairs [][2]int, boolOut []bool, t *obs.SpanTally) ([]bool, error) {
	if t.ID == 0 {
		t.ID = obs.NewTraceID()
	}
	// The clock starts before the capability probe: the first traced call
	// on a connection pays a caps round trip, and that is wall time the
	// stages must cover (it lands in the net residual).
	start := time.Now()
	wire := c.supportsTrace()
	peerBefore := t.SumHop(obs.HopPeer)

	outStart := len(boolOut)
	if need := outStart + len(pairs); cap(boolOut) >= need {
		boolOut = boolOut[:need]
	} else {
		grown := make([]bool, need)
		copy(grown, boolOut)
		boolOut = grown
	}
	if len(pairs) == 0 {
		return boolOut, nil
	}
	dest := boolOut[outStart:]
	maxBatch := c.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}

	c.mu.Lock()
	cc, err := c.ensureConn()
	if err != nil {
		c.mu.Unlock()
		return boolOut[:outStart], err
	}
	cl := callsPool.Get().(*callList)
	calls := cl.s[:0]
	var encodeNs int64
	for off := 0; off < len(pairs); off += maxBatch {
		chunk := pairs[off:min(off+maxBatch, len(pairs))]
		encStart := time.Now()
		if wire {
			c.req = appendPairsReqTrace(c.req[:0], opQuery, t.ID, chunk)
		} else {
			c.req = appendQueryReq(c.req[:0], chunk)
		}
		ca := getCall()
		ca.dest = dest[off : off+len(chunk)]
		if wire {
			ca.tr = t
		}
		ferr := c.sendFrame(cc, c.req, ca)
		encodeNs += int64(time.Since(encStart))
		if ferr != nil {
			c.mu.Unlock()
			putCall(ca)
			waitCalls(calls)
			putCalls(cl, calls)
			return boolOut[:outStart], ferr
		}
		calls = append(calls, ca)
	}
	flushStart := time.Now()
	if err := cc.bw.Flush(); err != nil {
		cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
	}
	flushNs := int64(time.Since(flushStart))
	c.mu.Unlock()

	for _, ca := range calls {
		if cerr := <-ca.done; cerr != nil && err == nil {
			err = cerr
		}
	}
	putCalls(cl, calls)
	if err != nil {
		return boolOut[:outStart], err
	}
	c.recordCallStages(t, start, encodeNs, flushNs, peerBefore)
	return boolOut, nil
}

// recordCallStages appends the client-side stages of a completed traced
// call: encode, flush, and the residual net — the call's wall time minus
// encode, flush and the direct peer's self-reported stages. Shard-labeled
// stages nest inside the peer's own upstream stage, so they are excluded
// from the residual; by construction the HopSelf and HopPeer entries then
// sum exactly to the wall time, which is what makes end-to-end attribution
// checkable ("stages cover X% of e2e") rather than approximate.
//
// Pipelined chunks let the peer work while the client is still encoding or
// flushing later chunks, so the peer's stages can overlap the client's own.
// That overlap would make the residual negative; it is charged back against
// flush, then encode (the client stages the peer ran alongside), so net
// stays non-negative and the sum stays exact. Only a peer report longer than
// the whole wall time — impossible for a peer that works inside the call —
// could still exceed it.
func (c *Client) recordCallStages(t *obs.SpanTally, start time.Time, encodeNs, flushNs, peerBefore int64) {
	totalNs := int64(time.Since(start))
	net := totalNs - encodeNs - flushNs - (t.SumHop(obs.HopPeer) - peerBefore)
	if net < 0 {
		over := -net
		cut := min(over, flushNs)
		flushNs -= cut
		encodeNs -= min(over-cut, encodeNs)
		net = 0
	}
	t.Add(obs.StageEncode, obs.HopSelf, encodeNs)
	t.Add(obs.StageFlush, obs.HopSelf, flushNs)
	t.Add(obs.StageNet, obs.HopSelf, net)
}

// manyTraceDist is manyTrace's distance-plane body (separate because the
// answer buffer is []int; the control flow is identical).
func (c *Client) manyTraceDist(pairs [][2]int, out []int, t *obs.SpanTally) ([]int, error) {
	if t.ID == 0 {
		t.ID = obs.NewTraceID()
	}
	start := time.Now() // before the caps probe, as in manyTrace
	wire := c.supportsTrace()
	peerBefore := t.SumHop(obs.HopPeer)

	outStart := len(out)
	if need := outStart + len(pairs); cap(out) >= need {
		out = out[:need]
	} else {
		grown := make([]int, need)
		copy(grown, out)
		out = grown
	}
	if len(pairs) == 0 {
		return out, nil
	}
	dest := out[outStart:]
	maxBatch := c.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}

	c.mu.Lock()
	cc, err := c.ensureConn()
	if err != nil {
		c.mu.Unlock()
		return out[:outStart], err
	}
	cl := callsPool.Get().(*callList)
	calls := cl.s[:0]
	var encodeNs int64
	for off := 0; off < len(pairs); off += maxBatch {
		chunk := pairs[off:min(off+maxBatch, len(pairs))]
		encStart := time.Now()
		if wire {
			c.req = appendPairsReqTrace(c.req[:0], opDist, t.ID, chunk)
		} else {
			c.req = appendPairsReq(c.req[:0], opDist, chunk)
		}
		ca := getCall()
		ca.dists = dest[off : off+len(chunk)]
		if wire {
			ca.tr = t
		}
		ferr := c.sendFrame(cc, c.req, ca)
		encodeNs += int64(time.Since(encStart))
		if ferr != nil {
			c.mu.Unlock()
			putCall(ca)
			waitCalls(calls)
			putCalls(cl, calls)
			return out[:outStart], ferr
		}
		calls = append(calls, ca)
	}
	flushStart := time.Now()
	if err := cc.bw.Flush(); err != nil {
		cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
	}
	flushNs := int64(time.Since(flushStart))
	c.mu.Unlock()

	for _, ca := range calls {
		if cerr := <-ca.done; cerr != nil && err == nil {
			err = cerr
		}
	}
	putCalls(cl, calls)
	if err != nil {
		return out[:outStart], err
	}
	c.recordCallStages(t, start, encodeNs, flushNs, peerBefore)
	return out, nil
}

// Info returns the number of vertices the server's engine answers for.
func (c *Client) Info() (int, error) {
	var n int
	ca := getCall()
	ca.infoN = &n
	if err := c.sendSmall(opInfo, ca); err != nil {
		putCall(ca)
		return 0, err
	}
	err := <-ca.done
	putCall(ca)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// ShardInfo describes the slice of the labeling a server holds, as reported
// by the shard-info handshake: the vertex count, the shard map (the trivial
// 1-shard map for an unsharded server), and the fat-vertex bitmap (bit v
// MSB-first within byte v/8) — everything a router needs to place queries.
type ShardInfo struct {
	N       int
	Map     core.ShardMap
	FatBits []byte
}

// Fat reports whether vertex v is fat on the serving engine.
func (si *ShardInfo) Fat(v int) bool {
	return si.FatBits[v>>3]&(1<<(7-uint(v)&7)) != 0
}

// ShardInfo performs the shard-info handshake.
func (c *Client) ShardInfo() (*ShardInfo, error) {
	si := new(ShardInfo)
	ca := getCall()
	ca.shard = si
	if err := c.sendSmall(opShardInfo, ca); err != nil {
		putCall(ca)
		return nil, err
	}
	err := <-ca.done
	putCall(ca)
	if err != nil {
		return nil, err
	}
	return si, nil
}

// sendSmall writes a one-byte request frame for ca and flushes.
func (c *Client) sendSmall(op byte, ca *call) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cc, err := c.ensureConn()
	if err != nil {
		return err
	}
	if err := c.sendFrame(cc, []byte{op}, ca); err != nil {
		return err
	}
	if err := cc.bw.Flush(); err != nil {
		cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
	}
	return nil
}

// parseShardInfo decodes a shard-info response body into si. Errors are
// protocol corruption (they kill the connection); semantic validation of the
// map against sibling shards is the router's job.
func parseShardInfo(si *ShardInfo, body []byte) error {
	n, k := binary.Uvarint(body)
	if k <= 0 {
		return fmt.Errorf("%w: truncated shard-info n", ErrClosed)
	}
	body = body[k:]
	count, k := binary.Uvarint(body)
	if k <= 0 {
		return fmt.Errorf("%w: truncated shard-info count", ErrClosed)
	}
	body = body[k:]
	index, k := binary.Uvarint(body)
	if k <= 0 || len(body) <= k {
		return fmt.Errorf("%w: truncated shard-info index", ErrClosed)
	}
	fnByte := body[k]
	body = body[k+1:]
	fn := core.ShardFn(fnByte)
	if count < 1 || index >= count || !fn.Valid() {
		return fmt.Errorf("%w: shard-info map %d/%d fn %d", ErrClosed, index, count, fnByte)
	}
	if uint64(len(body)) != (n+7)/8 {
		return fmt.Errorf("%w: %d fat-bitmap bytes for %d vertices", ErrClosed, len(body), n)
	}
	si.N = int(n)
	si.Map = core.ShardMap{Count: int(count), Index: int(index), Fn: fn}
	si.FatBits = append(si.FatBits[:0], body...)
	return nil
}

// Pending returns the number of request frames written but not yet answered
// on the live connection — the pipelining depth, for orchestrators (the
// router's per-upstream in-flight gauge) and tests.
func (c *Client) Pending() int {
	c.mu.Lock()
	cc := c.cc
	c.mu.Unlock()
	if cc == nil {
		return 0
	}
	cc.qmu.Lock()
	defer cc.qmu.Unlock()
	return len(cc.pending) - cc.head
}
