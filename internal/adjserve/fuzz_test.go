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
	bufs := &connBuffers{}
	probe := [][2]int{{0, 1}, {2, 3}}
	want, err := adj.AdjacentMany(probe, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(appendPairsReq(nil, opQuery, 0, probe))
	f.Fuzz(func(t *testing.T, req []byte) {
		in := append([]byte(nil), req...) // serveFrame strips a trace context in place
		resp, _ := srv.serveFrame(in, bufs, time.Now(), 0, 0)
		bufs.resp = resp[:0]
		if err := deliver(callFor(req, maxBatch), resp); err != nil {
			t.Fatalf("request %x drew response %x: %v", req, resp, err)
		}
		if len(resp) > 0 && resp[0]&^opTraceFlag == statusOK && !pairsInRange(req, n) {
			t.Fatalf("request %x with an out-of-range vertex answered OK: %x", req, resp)
		}

		ca := callFor(appendPairsReq(nil, opQuery, 0, probe), maxBatch)
		resp, _ = srv.serveFrame(appendPairsReq(nil, opQuery, 0, probe), bufs, time.Now(), 0, 0)
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
