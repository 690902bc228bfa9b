package adjserve

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// goldenFramesPath holds the wire transcripts TestGoldenFrames compares
// against: for every case, each request payload (">") and the response
// payload it drew ("<") in hex, plus the call's decoded result ("=", or "!"
// for an error). Frame length headers are checked by splitFrames instead.
// Trace blocks in traced responses carry wall-clock durations, so their
// durations are zeroed before comparison; stage ids and hop labels are kept.
const goldenFramesPath = "testdata/frames.golden"

// goldenTraceID is the fixed trace id traced golden calls propagate, so
// traced request frames are byte-stable.
const goldenTraceID = 0x0102030405060708

// tap records both byte streams of one connection.
type tap struct {
	mu      sync.Mutex
	out, in []byte
}

type tapConn struct {
	net.Conn
	t *tap
}

func (c tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.mu.Lock()
	c.t.out = append(c.t.out, p[:n]...)
	c.t.mu.Unlock()
	return n, err
}

func (c tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.mu.Lock()
	c.t.in = append(c.t.in, p[:n]...)
	c.t.mu.Unlock()
	return n, err
}

// splitFrames cuts a recorded stream into frame payloads.
func splitFrames(t *testing.T, b []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(b) > 0 {
		if len(b) < frameHeaderLen {
			t.Fatalf("torn frame header %x", b)
		}
		n := int(binary.LittleEndian.Uint32(b))
		if len(b) < frameHeaderLen+n {
			t.Fatalf("torn frame: %d of %d payload bytes", len(b)-frameHeaderLen, n)
		}
		frames = append(frames, b[frameHeaderLen:frameHeaderLen+n])
		b = b[frameHeaderLen+n:]
	}
	return frames
}

// zeroTraceDurations rewrites a traced OK response with every trace-block
// duration set to zero; any other response is returned unchanged.
func zeroTraceDurations(t *testing.T, req, resp []byte) []byte {
	t.Helper()
	if len(req) == 0 || len(resp) == 0 || resp[0]&opTraceFlag == 0 {
		return resp
	}
	body := resp[1:]
	count, n := binary.Uvarint(body)
	if n <= 0 {
		t.Fatalf("traced response without a pair count: %x", resp)
	}
	off := 1 + n
	switch req[0] &^ opTraceFlag {
	case opQuery:
		off += int(count+7) / 8
	case opDist:
		for i := uint64(0); i < count; i++ {
			_, k := binary.Uvarint(resp[off:])
			if k <= 0 {
				t.Fatalf("traced dist response truncated: %x", resp)
			}
			off += k
		}
	default:
		t.Fatalf("traced response to op %d", req[0])
	}
	var tr obs.SpanTally
	if err := parseTraceBlock(resp[off:], &tr, obs.HopSelf); err != nil {
		t.Fatalf("trace block of %x: %v", resp, err)
	}
	for i := range tr.Stages() {
		tr.Stages()[i].Ns = 0
	}
	return appendTraceTally(append([]byte(nil), resp[:off]...), &tr)
}

// goldenCase is one wire exchange. Exactly one of call and raw is set: call
// drives a fresh Client (pinning the client's request encoding and answer
// decoding), raw writes the given request payloads on a bare connection
// (pinning how servers answer frames no client would send). pin, when set, is
// pushed past its shedding bound for the duration of the case.
type goldenCase struct {
	name string
	addr string
	pin  *Server
	call func(c *Client) (string, error)
	raw  [][]byte
}

func (gc goldenCase) transcript(t *testing.T) string {
	t.Helper()
	if gc.pin != nil {
		gc.pin.Metrics().QueuedFrames.Add(100)
		defer gc.pin.Metrics().QueuedFrames.Add(-100)
	}
	tp := new(tap)
	var result string
	if gc.call != nil {
		c := NewClient(gc.addr)
		c.DialFunc = func(addr string) (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return tapConn{nc, tp}, nil
		}
		res, err := gc.call(c)
		c.Close()
		result = "= " + res
		if err != nil {
			result = "! " + err.Error()
		}
	} else {
		nc, err := net.Dial("tcp", gc.addr)
		if err != nil {
			t.Fatal(err)
		}
		conn := tapConn{nc, tp}
		for _, p := range gc.raw {
			hdr := frameHeader(len(p))
			if _, err := conn.Write(append(hdr[:], p...)); err != nil {
				t.Fatal(err)
			}
			var rh [frameHeaderLen]byte
			if _, err := io.ReadFull(conn, rh[:]); err != nil {
				t.Fatalf("%s: %v", gc.name, err)
			}
			if _, err := io.ReadFull(conn, make([]byte, binary.LittleEndian.Uint32(rh[:]))); err != nil {
				t.Fatalf("%s: %v", gc.name, err)
			}
		}
		nc.Close()
	}
	tp.mu.Lock()
	reqs, resps := splitFrames(t, tp.out), splitFrames(t, tp.in)
	tp.mu.Unlock()
	if len(reqs) != len(resps) {
		t.Fatalf("%s: %d request frames drew %d responses", gc.name, len(reqs), len(resps))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", gc.name)
	for i := range reqs {
		fmt.Fprintf(&b, "> %x\n< %x\n", reqs[i], zeroTraceDurations(t, reqs[i], resps[i]))
	}
	if gc.call != nil {
		b.WriteString(result + "\n")
	}
	return b.String()
}

// goldenPairs is a deterministic batch of size k over n vertices, led by
// first when it is non-nil (a pair whose answer the case must cover).
func goldenPairs(n, k int, first *[2]int) [][2]int {
	pairs := randomPairs(n, k, int64(1000+k))
	if first != nil && k > 0 {
		pairs[0] = *first
	}
	return pairs
}

// servePlanes serves an engine pair on loopback with shedding armed but idle
// (depth 8 is never reached by the golden cases' sequential frames).
func servePlanes(t *testing.T, adj *core.QueryEngine, dist *core.DistEngine, maxBatch int) (string, *Server) {
	t.Helper()
	srv := NewServer(adj, maxBatch)
	if dist != nil {
		srv.SetDistEngine(dist)
	}
	srv.SetShedDepth(8)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), srv
}

func pairsReq(op byte, traced bool, count uint64, pairs ...int) []byte {
	b := []byte{op}
	if traced {
		b[0] |= opTraceFlag
		b = binary.LittleEndian.AppendUint64(b, goldenTraceID)
	}
	b = binary.AppendUvarint(b, count)
	for _, v := range pairs {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}

// farPair returns the first pair (u<v) whose distance the engine reports as
// -1: unreachable for pll, beyond the bound for bdist — the pair that must
// encode as the 255 wire sentinel.
func farPair(t *testing.T, e *core.DistEngine) *[2]int {
	t.Helper()
	for u := 0; u < e.N(); u++ {
		for v := u + 1; v < e.N(); v++ {
			if d, err := e.Dist(u, v); err == nil && d < 0 {
				return &[2]int{u, v}
			}
		}
	}
	t.Fatal("no unreachable or beyond-bound pair")
	return nil
}

// goldenCases builds the fixtures and the case list: direct adjacency, pll
// and bdist servers, a router over 3 range shards, and a router over 2 pll
// replicas.
func goldenCases(t *testing.T) []goldenCase {
	const n, maxBatch = 200, 64
	adj := testEngine(t, n, 11)
	dists := testDistEngines(t, n, 11)
	_, shards := shardEngines(t, n, 3, core.ShardRange, 11)

	var edges [][2]int
	for u := 0; u < n && len(edges) < 32; u++ {
		for v := u + 1; v < n && len(edges) < 32; v++ {
			if ok, _ := adj.Adjacent(u, v); ok {
				edges = append(edges, [2]int{v, u})
			}
		}
	}
	adjAddr, adjSrv := servePlanes(t, adj, nil, maxBatch)
	shardAddrs := make([]string, len(shards))
	shardSrvs := make([]*Server, len(shards))
	for i, e := range shards {
		shardAddrs[i], shardSrvs[i] = servePlanes(t, e, nil, maxBatch)
	}
	routedAddr, _ := startRouter(t, shardAddrs, maxBatch)
	replicaAddrs := make([]string, 2)
	replicaSrvs := make([]*Server, 2)
	for i := range replicaAddrs {
		replicaAddrs[i], replicaSrvs[i] = servePlanes(t, nil, dists["pll"], maxBatch)
	}
	replicaAddr, _ := startRouter(t, replicaAddrs, maxBatch)
	// Two plain adjacency servers also handshake as a replica fleet, which
	// admits distance frames their upstreams then refuse.
	adjReplicaAddr, _ := startRouter(t, []string{adjAddr, adjAddr}, maxBatch)

	adjCalls := func(prefix, addr string) []goldenCase {
		var cs []goldenCase
		for _, k := range []int{1, 9, 64} {
			pairs := goldenPairs(n, k, nil)
			for i := 1; i < k; i += 2 {
				pairs[i] = edges[i/2] // every other pair answers true
			}
			cs = append(cs,
				goldenCase{name: fmt.Sprintf("%s/query/b%d", prefix, k), addr: addr,
					call: func(c *Client) (string, error) {
						out, err := c.AdjacentMany(pairs, nil)
						return fmt.Sprint(out), err
					}},
				goldenCase{name: fmt.Sprintf("%s/query-traced/b%d", prefix, k), addr: addr,
					call: func(c *Client) (string, error) {
						tr := obs.SpanTally{ID: goldenTraceID}
						out, err := c.AdjacentManyTrace(pairs, nil, &tr)
						return fmt.Sprint(out), err
					}})
		}
		return append(cs,
			goldenCase{name: prefix + "/query/b0", addr: addr,
				raw: [][]byte{pairsReq(opQuery, false, 0), pairsReq(opQuery, true, 0)}})
	}
	distCalls := func(prefix, addr string, far *[2]int) []goldenCase {
		var cs []goldenCase
		for _, k := range []int{1, 9, 64} {
			pairs := goldenPairs(n, k, far)
			cs = append(cs,
				goldenCase{name: fmt.Sprintf("%s/dist/b%d", prefix, k), addr: addr,
					call: func(c *Client) (string, error) {
						out, err := c.DistMany(pairs, nil)
						return fmt.Sprint(out), err
					}},
				goldenCase{name: fmt.Sprintf("%s/dist-traced/b%d", prefix, k), addr: addr,
					call: func(c *Client) (string, error) {
						tr := obs.SpanTally{ID: goldenTraceID}
						out, err := c.DistManyTrace(pairs, nil, &tr)
						return fmt.Sprint(out), err
					}})
		}
		return append(cs,
			goldenCase{name: prefix + "/dist/b0", addr: addr,
				raw: [][]byte{pairsReq(opDist, false, 0), pairsReq(opDist, true, 0)}})
	}
	// errorFrames is the malformed-request set for one op; every frame is
	// answered with an error frame on the same connection.
	errorFrames := func(op byte) [][]byte {
		over := pairsReq(op, false, maxBatch+1)
		for i := 0; i < maxBatch+1; i++ {
			over = append(over, 0, 1)
		}
		return [][]byte{
			{op},                            // no pair count
			{op, 0xff},                      // truncated count
			over,                            // batch over the limit
			pairsReq(op, false, 2, 0, 1, 0), // second pair lacks v
			pairsReq(op, false, 1, 0),       // first pair lacks v
			pairsReq(op, false, 1, n+50, 1), // u out of range
			pairsReq(op, false, 1, 1, n),    // v out of range
			pairsReq(op, false, 1, 0, 1, 7), // trailing bytes
			pairsReq(op, true, 1, n+50, 1),  // traced error: no trace block
			pairsReq(op, false, 1, 0, 1),    // still serving afterwards
		}
	}
	shedFrames := func(op byte, pairs ...int) [][]byte {
		return [][]byte{pairsReq(op, false, uint64(len(pairs)/2), pairs...),
			pairsReq(op, true, uint64(len(pairs)/2), pairs...)}
	}

	var cs []goldenCase
	cs = append(cs, adjCalls("direct", adjAddr)...)
	for _, kind := range []string{"pll", "bdist"} {
		addr, _ := servePlanes(t, nil, dists[kind], maxBatch)
		cs = append(cs, distCalls("direct-"+kind, addr, farPair(t, dists[kind]))...)
		cs = append(cs,
			goldenCase{name: "direct-" + kind + "/errors/dist", addr: addr, raw: errorFrames(opDist)},
			goldenCase{name: "direct-" + kind + "/errors/wrong-plane", addr: addr,
				raw: [][]byte{pairsReq(opQuery, false, 1, 0, 1), pairsReq(opDist, false, 1, 0, 1)}})
	}
	distAddr, distSrv := servePlanes(t, nil, dists["pll"], maxBatch)
	cs = append(cs,
		goldenCase{name: "direct/errors/query", addr: adjAddr, raw: errorFrames(opQuery)},
		goldenCase{name: "direct/errors/wrong-plane", addr: adjAddr,
			raw: [][]byte{pairsReq(opDist, false, 1, 0, 1), pairsReq(opQuery, false, 1, 0, 1)}},
		goldenCase{name: "direct/errors/op", addr: adjAddr,
			raw: [][]byte{{}, {9}, {opInfo}, {opShardInfo}}},
		goldenCase{name: "direct/shed/query", addr: adjAddr, pin: adjSrv,
			raw: append(shedFrames(opQuery, 0, 1, 2, 3), []byte{opInfo})},
		goldenCase{name: "direct/shed/dist", addr: distAddr, pin: distSrv,
			raw: append(shedFrames(opDist, 0, 1, 2, 3), []byte{opInfo}, []byte{opShardInfo})},
		goldenCase{name: "direct/shed/client", addr: adjAddr, pin: adjSrv,
			call: func(c *Client) (string, error) {
				out, err := c.AdjacentMany([][2]int{{0, 1}}, nil)
				return fmt.Sprint(out), err
			}},
	)

	cs = append(cs, adjCalls("routed-shards", routedAddr)...)
	cs = append(cs,
		goldenCase{name: "routed-shards/errors/query", addr: routedAddr, raw: errorFrames(opQuery)},
		goldenCase{name: "routed-shards/errors/wrong-plane", addr: routedAddr,
			raw: [][]byte{pairsReq(opDist, false, 1, 0, 1), {opInfo}, {opShardInfo}}},
		goldenCase{name: "routed-shards/shed/query", addr: routedAddr, pin: shardSrvs[0],
			raw: append(shedFrames(opQuery, 0, 0, 1, 1, 2, 2), pairsReq(opQuery, false, 1, n-1, n-1))},
	)
	cs = append(cs, distCalls("routed-replicas", replicaAddr, farPair(t, dists["pll"]))...)
	cs = append(cs,
		goldenCase{name: "routed-replicas/errors/dist", addr: replicaAddr, raw: errorFrames(opDist)},
		goldenCase{name: "routed-replicas/errors/wrong-plane", addr: replicaAddr,
			raw: [][]byte{pairsReq(opQuery, false, 1, 0, 1), {opInfo}, {opShardInfo}}},
		goldenCase{name: "routed-adj-replicas/errors/upstream", addr: adjReplicaAddr,
			raw: [][]byte{pairsReq(opDist, false, 2, 0, 1, n-1, 0), pairsReq(opQuery, false, 1, 0, 1)}},
		goldenCase{name: "routed-replicas/shed/dist", addr: replicaAddr, pin: replicaSrvs[0],
			raw: append(shedFrames(opDist, 0, 1, 1, 2), pairsReq(opDist, false, 1, n-1, 0))},
	)
	return cs
}

// renderGolden runs every case and returns the full transcript.
func renderGolden(t *testing.T) string {
	var b strings.Builder
	for _, gc := range goldenCases(t) {
		b.WriteString(gc.transcript(t))
	}
	return b.String()
}

// TestGoldenFrames pins the wire format byte for byte: request encoding of
// both pair ops (traced and untraced, batch sizes 0/1/9/64), answer encoding
// (bit vector for query; uvarint distances with the 255 sentinel for pll
// unreachable and bdist beyond-bound pairs), every error frame, and shed
// frames from direct servers and from routers over shards and replicas.
func TestGoldenFrames(t *testing.T) {
	want, err := os.ReadFile(goldenFramesPath)
	if err != nil {
		t.Fatal(err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(renderGolden(t), "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<missing>"
	}
	name := ""
	for i := 0; i < max(len(wl), len(gl)); i++ {
		w, g := line(wl, i), line(gl, i)
		if strings.HasPrefix(w, "== ") {
			name = w[3:]
		}
		if w != g {
			t.Fatalf("case %s, %s line %d:\n got  %s\n want %s", name, goldenFramesPath, i+1, g, w)
		}
	}
}
