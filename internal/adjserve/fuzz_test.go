package adjserve

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/obs"
)

// FuzzServeFrame drives arbitrary request payloads through serveFrame on a
// server holding both planes. Every response must parse through the
// client's deliver without a protocol error, an OK answer must never cover
// an out-of-range vertex, and the server must answer a well-formed frame
// correctly right after. The committed corpus (testdata/fuzz) holds the
// golden-frame requests plus inputs found by fuzzing.
func FuzzServeFrame(f *testing.F) {
	const n, maxBatch = 200, 64
	adj := testEngine(f, n, 11)
	srv := NewServer(adj, maxBatch)
	srv.SetDistEngine(testDistEngines(f, n, 11)["pll"])
	a := srv.openConn()
	bufs := &frameBufs{}
	probe := [][2]int{{0, 1}, {2, 3}}
	want, err := adj.AdjacentMany(probe, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(appendPairsReq(nil, opQuery, 0, probe))
	f.Fuzz(func(t *testing.T, req []byte) {
		in := append([]byte(nil), req...) // serveFrame strips a trace context in place
		resp, _ := srv.serveFrame(a, bufs, in, time.Now(), 0, 0)
		bufs.resp = resp[:0]
		if err := deliver(callFor(req, maxBatch), resp); err != nil {
			t.Fatalf("request %x drew response %x: %v", req, resp, err)
		}
		if len(resp) > 0 && resp[0]&^opTraceFlag == statusOK && !pairsInRange(req, n) {
			t.Fatalf("request %x with an out-of-range vertex answered OK: %x", req, resp)
		}

		ca := callFor(appendPairsReq(nil, opQuery, 0, probe), maxBatch)
		resp, _ = srv.serveFrame(a, bufs, appendPairsReq(nil, opQuery, 0, probe), time.Now(), 0, 0)
		bufs.resp = resp[:0]
		if err := deliver(ca, resp); err != nil || <-ca.done != nil {
			t.Fatalf("after request %x: well-formed frame drew %x (%v)", req, resp, err)
		}
		for i, a := range ca.ans {
			if adjAnswer(a) != want[i] {
				t.Fatalf("after request %x: pair %v = %v, want %v", req, probe[i], adjAnswer(a), want[i])
			}
		}
	})
}

// callFor builds the call a client would have enqueued for req: info and
// shard-info calls for those ops, and for anything else a pair call sized to
// the frame's count when that parses within maxBatch (an OK answer to a
// frame the server should have refused then fails deliver's count check).
func callFor(req []byte, maxBatch int) *call {
	ca := &call{done: make(chan error, 1), tr: new(obs.SpanTally)}
	op, body := byte(0), req
	if len(body) > 0 {
		op, body = body[0], body[1:]
	}
	if op&opTraceFlag != 0 && len(body) >= traceIDLen {
		op, body = op&^opTraceFlag, body[traceIDLen:]
	}
	switch op {
	case opInfo:
		ca.infoN, ca.caps = new(int), new(uint64)
	case opShardInfo:
		ca.shard = new(ShardInfo)
	default:
		ca.plane = adjPlane
		if op == opDist {
			ca.plane = distPlane
		}
		if count, k := binary.Uvarint(body); k > 0 && count <= uint64(maxBatch) {
			ca.ans = make([]uint8, count)
		}
	}
	return ca
}

// pairsInRange reports whether every vertex a pair frame names is below n
// (decoding as far as the frame allows); other frames name no vertex.
func pairsInRange(req []byte, n int) bool {
	op, body := req[0], req[1:]
	if op&opTraceFlag != 0 {
		op, body = op&^opTraceFlag, body[min(traceIDLen, len(body)):]
	}
	if planeOf(op) == nil {
		return true
	}
	count, k := binary.Uvarint(body)
	if k <= 0 {
		return true
	}
	body = body[k:]
	for i := uint64(0); i < 2*count; i++ {
		v, k := binary.Uvarint(body)
		if k <= 0 {
			return true
		}
		if v >= uint64(n) {
			return false
		}
		body = body[k:]
	}
	return true
}

// FuzzClientDeliver feeds arbitrary response payloads — what a broken or
// hostile peer could send — to deliver for pair calls of both planes, traced
// and untraced, each asking for the pair count the payload claims, one more,
// one fewer and none. deliver must never panic, and a call it completes with
// success must hold exactly the asked number of answers, each inside the
// plane's codec and equal to an independent decode of the payload; a traced
// call's tally must hold the peer's stages relabeled off HopSelf. The
// committed corpus (testdata/fuzz) holds the response payloads of the golden
// frames plus inputs found by fuzzing.
func FuzzClientDeliver(f *testing.F) {
	f.Add([]byte{statusOK, 9, 0x55, 0x80})
	f.Fuzz(func(t *testing.T, payload []byte) {
		asked := []int{0}
		if len(payload) > 1 {
			// A claim beyond 8 answers per payload byte cannot be backed by
			// the payload, so larger counts need no allocation to test.
			if c, k := binary.Uvarint(payload[1:]); k > 0 && c <= 8*uint64(len(payload)) {
				asked = append(asked, int(c), int(c)+1, max(int(c)-1, 0))
			}
		}
		for _, p := range []*pairPlane{adjPlane, distPlane} {
			for _, traced := range []bool{false, true} {
				for _, k := range asked {
					checkDeliver(t, p, traced, k, payload)
				}
			}
		}
	})
}

// checkDeliver runs one deliver and checks a successful verdict against
// referenceAnswers.
func checkDeliver(t *testing.T, p *pairPlane, traced bool, asked int, payload []byte) {
	t.Helper()
	ca := &call{plane: p, ans: make([]uint8, asked), done: make(chan error, 1)}
	if traced {
		ca.tr = new(obs.SpanTally)
	}
	if err := deliver(ca, payload); err != nil {
		return // protocol corruption: the connection dies, no call succeeds
	}
	var verdict error
	select {
	case verdict = <-ca.done:
	default:
		t.Fatalf("%s call of %d pairs: deliver accepted %x without a verdict", p.name, asked, payload)
	}
	if verdict != nil {
		return
	}
	want, stages, ok := referenceAnswers(p, asked, payload)
	if !ok {
		t.Fatalf("%s call of %d pairs succeeded on %x, which does not answer it", p.name, asked, payload)
	}
	for i, a := range ca.ans {
		if a != want[i] || (p.bits && a > 1) {
			t.Fatalf("%s call of %d pairs on %x: answer %d = %d, want %d", p.name, asked, payload, i, a, want[i])
		}
	}
	if traced {
		if got := ca.tr.Len(); got != min(stages, obs.TraceMaxStages) {
			t.Fatalf("traced call on %x kept %d stages, block has %d", payload, got, stages)
		}
		for _, st := range ca.tr.Stages() {
			if st.Hop == obs.HopSelf {
				t.Fatalf("traced call on %x kept a peer stage as HopSelf", payload)
			}
		}
	}
}

// referenceAnswers decodes payload as an OK answer to a p call of asked
// pairs, independently of deliver: the count must match, the answer section
// must hold asked answers in the plane's codec (bits, or uvarints up to the
// 255 sentinel), and what follows must be nothing, or — when the status
// carries the trace flag — exactly one trace block, whose stage count is
// returned.
func referenceAnswers(p *pairPlane, asked int, payload []byte) (ans []uint8, stages int, ok bool) {
	if len(payload) == 0 || payload[0]&^opTraceFlag != statusOK {
		return nil, 0, false
	}
	b := payload[1:]
	c, k := binary.Uvarint(b)
	if k <= 0 || c != uint64(asked) {
		return nil, 0, false
	}
	b = b[k:]
	ans = make([]uint8, asked)
	if p.bits {
		need := (asked + 7) / 8
		if len(b) < need {
			return nil, 0, false
		}
		for i := range ans {
			ans[i] = b[i/8] >> (7 - i%8) & 1
		}
		b = b[need:]
	} else {
		for i := range ans {
			d, k := binary.Uvarint(b)
			if k <= 0 || d > 255 {
				return nil, 0, false
			}
			ans[i], b = uint8(d), b[k:]
		}
	}
	if payload[0]&opTraceFlag == 0 {
		return ans, 0, len(b) == 0
	}
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, 0, false
	}
	b = b[k:]
	for i := uint64(0); i < n; i++ {
		if len(b) < 2 {
			return nil, 0, false
		}
		_, k := binary.Uvarint(b[2:])
		if k <= 0 {
			return nil, 0, false
		}
		b = b[2+k:]
		stages++
	}
	return ans, stages, len(b) == 0
}
