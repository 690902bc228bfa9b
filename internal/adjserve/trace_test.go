package adjserve

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// sumHops totals the tally's entries per hop, keyed by the raw hop byte.
func sumHops(t *obs.SpanTally) map[uint8]int64 {
	m := make(map[uint8]int64)
	for _, st := range t.Stages() {
		m[st.Hop] += st.Ns
	}
	return m
}

// stageSet collects which (stage, hop) combinations appeared.
func stageSet(t *obs.SpanTally) map[[2]uint8]bool {
	m := make(map[[2]uint8]bool)
	for _, st := range t.Stages() {
		m[[2]uint8{st.Stage, st.Hop}] = true
	}
	return m
}

// TestTraceDirectE2E traces one batched call against a plain server and
// checks the acceptance invariant: the client's own stages plus the server's
// echoed stage report sum to the observed end-to-end latency within 5%
// (the client constructs its net stage as exactly the unattributed remainder,
// so the invariant is structural — the tolerance only absorbs the wall-clock
// reads outside the traced window).
func TestTraceDirectE2E(t *testing.T) {
	eng := testEngine(t, 400, 11)
	addr, srv, _ := startServer(t, eng, 0)
	sink := &obs.TraceSink{Ring: obs.NewTraceRing(16)}
	srv.SetTraceSink(sink)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	caps, err := c.Caps()
	if err != nil {
		t.Fatal(err)
	}
	if caps&capTrace == 0 {
		t.Fatalf("server caps %#x missing capTrace", caps)
	}

	pairs := randomPairs(eng.N(), 2000, 11)
	want, err := eng.AdjacentMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tally obs.SpanTally
	start := time.Now()
	got, err := c.AdjacentManyTrace(pairs, nil, &tally)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: got %v, want %v", i, got[i], want[i])
		}
	}

	set := stageSet(&tally)
	for _, wantStage := range [][2]uint8{
		{obs.StageEncode, obs.HopSelf},
		{obs.StageFlush, obs.HopSelf},
		{obs.StageNet, obs.HopSelf},
		{obs.StageQueue, obs.HopPeer},
		{obs.StageRead, obs.HopPeer},
		{obs.StageProbe, obs.HopPeer},
	} {
		if !set[wantStage] {
			t.Errorf("missing stage %s@%s in %v",
				obs.StageName(wantStage[0]), obs.HopName(wantStage[1]), tally.Stages())
		}
	}

	var sum int64
	for _, st := range tally.Stages() {
		sum += st.Ns
	}
	lo, hi := int64(float64(wall)*0.95)-int64(2*time.Millisecond), int64(wall)
	if sum < lo || sum > hi {
		t.Errorf("stage sum %v outside [%v, %v] of e2e %v", time.Duration(sum),
			time.Duration(lo), time.Duration(hi), wall)
	}

	// The traced frame was deposited at the server under the propagated id.
	snap := sink.Ring.Snapshot(nil)
	if len(snap) == 0 {
		t.Fatal("server sink captured no traces")
	}
	found := false
	for _, tr := range snap {
		if tr.ID == tally.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("trace id %s not in server ring", obs.TraceID(tally.ID))
	}
}

// TestRecordCallStagesOverlap: when the peer's reported stages exceed the
// wall time left after encode and flush (pipelined chunks overlap the two),
// the overlap comes out of flush, then encode — net never goes negative and
// the self and peer stages still sum to the wall time exactly.
func TestRecordCallStagesOverlap(t *testing.T) {
	const ms = int64(time.Millisecond)
	for _, tc := range []struct {
		name                 string
		encode, flush, peer  int64
		wantFlush0, wantEnc0 bool
	}{
		{"flush absorbs", 3 * ms, 4 * ms, 6 * ms, false, false},
		{"flush then encode", 3 * ms, 4 * ms, 8 * ms, true, false},
		{"peer exceeds wall", 1 * ms, 1 * ms, 12 * ms, true, true},
	} {
		var c Client
		var tally obs.SpanTally
		tally.Add(obs.StageProbe, obs.HopPeer, tc.peer)
		start := time.Now().Add(-10 * time.Millisecond)
		c.recordCallStages(&tally, start, tc.encode, tc.flush, 0)
		after := int64(time.Since(start))
		stages := map[uint8]int64{}
		var sum int64
		for _, st := range tally.Stages() {
			if st.Hop == obs.HopSelf {
				stages[st.Stage] = st.Ns
			}
			sum += st.Ns
		}
		enc, flush, net := stages[obs.StageEncode], stages[obs.StageFlush], stages[obs.StageNet]
		if net < 0 || enc < 0 || flush < 0 {
			t.Fatalf("%s: negative stage: encode=%d flush=%d net=%d", tc.name, enc, flush, net)
		}
		if enc > tc.encode || flush > tc.flush {
			t.Errorf("%s: stages grew: encode %d→%d, flush %d→%d", tc.name, tc.encode, enc, tc.flush, flush)
		}
		if (flush == 0) != tc.wantFlush0 || (enc == 0) != tc.wantEnc0 {
			t.Errorf("%s: encode=%v flush=%v net=%v", tc.name, time.Duration(enc), time.Duration(flush), time.Duration(net))
		}
		// The wall time the function saw lies in [10 ms, after]; the stage
		// sum must equal it, unless the peer alone reports more than that.
		lo, hi := max(10*ms, tc.peer), max(after, tc.peer)
		if sum < lo || sum > hi {
			t.Errorf("%s: stage sum %v outside [%v, %v]", tc.name, time.Duration(sum), time.Duration(lo), time.Duration(hi))
		}
	}
}

// TestTraceRoutedE2E is the acceptance check through the full scatter-gather
// path: client → router → 3 shard servers. The reconstructed timeline must
// contain the router's hop stages and per-shard sub-traces, and the top-level
// stages (client self + router hop) must sum to the observed e2e latency
// within 5% — shard-indexed entries nest inside the router's upstream window
// and are excluded from the invariant.
func TestTraceRoutedE2E(t *testing.T) {
	full, engines := shardEngines(t, 400, 3, core.ShardRange, 7)
	addrs, srvs := startShardFleet(t, engines)
	for _, s := range srvs {
		s.SetTraceSink(&obs.TraceSink{Ring: obs.NewTraceRing(16)})
	}
	addr, r := startRouter(t, addrs, 0)
	sink := &obs.TraceSink{Ring: obs.NewTraceRing(16)}
	r.SetTraceSink(sink)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pairs := randomPairs(full.N(), 3000, 7)
	var tally obs.SpanTally
	start := time.Now()
	got, err := c.AdjacentManyTrace(pairs, nil, &tally)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		want, err := full.Adjacent(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("pair %d (%d,%d) = %v, engine says %v", i, p[0], p[1], got[i], want)
		}
	}

	set := stageSet(&tally)
	for _, wantStage := range [][2]uint8{
		{obs.StageScatter, obs.HopPeer},
		{obs.StageUpstream, obs.HopPeer},
		{obs.StageGather, obs.HopPeer},
	} {
		if !set[wantStage] {
			t.Errorf("missing router stage %s@%s in %v",
				obs.StageName(wantStage[0]), obs.HopName(wantStage[1]), tally.Stages())
		}
	}
	hops := sumHops(&tally)
	for shard := uint8(0); shard < 3; shard++ {
		if hops[shard] <= 0 {
			t.Errorf("no stages attributed to shard %d: %v", shard, tally.Stages())
		}
		if !set[[2]uint8{obs.StageProbe, shard}] {
			t.Errorf("shard %d missing probe stage", shard)
		}
		if !set[[2]uint8{obs.StageNet, shard}] {
			t.Errorf("shard %d missing net stage", shard)
		}
	}

	// Top-level invariant: self + router-hop stages cover the wall time.
	top := hops[obs.HopSelf] + hops[obs.HopPeer]
	lo, hi := int64(float64(wall)*0.95)-int64(2*time.Millisecond), int64(wall)
	if top < lo || top > hi {
		t.Errorf("top-level stage sum %v outside [%v, %v] of e2e %v",
			time.Duration(top), time.Duration(lo), time.Duration(hi), wall)
	}

	// Shard sub-traces nest inside the router's upstream window. The upstream
	// stage is a wall-clock window over concurrent per-shard calls, so each
	// single shard's total must fit within it (plus scheduling slop).
	var up int64
	for _, st := range tally.Stages() {
		if st.Stage == obs.StageUpstream && st.Hop == obs.HopPeer {
			up = st.Ns
		}
	}
	for shard := uint8(0); shard < 3; shard++ {
		if hops[shard] > up+int64(2*time.Millisecond) {
			t.Errorf("shard %d stages (%v) exceed router upstream window (%v)",
				shard, time.Duration(hops[shard]), time.Duration(up))
		}
	}

	// The router deposited the downstream-traced frame under the same id.
	snap := sink.Ring.Snapshot(nil)
	found := false
	for _, tr := range snap {
		if tr.ID == tally.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("trace id %s not in router ring (got %d traces)", obs.TraceID(tally.ID), len(snap))
	}
}

// TestTraceCapsFallback pins the downgrade path: against a server that does
// not advertise capTrace, a traced call still answers correctly and the tally
// carries the client-side stages only — no peer report, no wire extension.
func TestTraceCapsFallback(t *testing.T) {
	eng := testEngine(t, 400, 13)
	addr, _, _ := startServer(t, eng, 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// White-box: pin the negotiated capability word to "none", as dialing a
	// pre-trace build would have.
	c.mu.Lock()
	c.caps, c.capsKnown = 0, true
	c.mu.Unlock()

	pairs := randomPairs(eng.N(), 500, 13)
	want, err := eng.AdjacentMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tally obs.SpanTally
	got, err := c.AdjacentManyTrace(pairs, nil, &tally)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if tally.Len() == 0 {
		t.Fatal("fallback tally is empty")
	}
	for _, st := range tally.Stages() {
		if st.Hop != obs.HopSelf {
			t.Errorf("unexpected non-self stage %s@%s against an untraced server",
				obs.StageName(st.Stage), obs.HopName(st.Hop))
		}
	}
}

// TestTraceSlowlog pins threshold capture: with a 0-sample sink whose slow
// threshold is 1ns, plain untraced calls land in the slowlog ring with the
// server's coarse stages attached, and the OnSlow hook fires.
func TestTraceSlowlog(t *testing.T) {
	eng := testEngine(t, 400, 17)
	addr, srv, _ := startServer(t, eng, 0)
	sink := &obs.TraceSink{
		Ring:   obs.NewTraceRing(16),
		Slow:   obs.NewTraceRing(16),
		SlowNs: 1,
	}
	hit := make(chan struct{}, 16)
	sink.OnSlow = func(tr *obs.Trace) {
		select {
		case hit <- struct{}{}:
		default:
		}
	}
	srv.SetTraceSink(sink)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AdjacentMany(randomPairs(eng.N(), 64, 17), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hit:
	case <-time.After(5 * time.Second):
		t.Fatal("OnSlow hook never fired")
	}
	if sink.SlowHits.Load() == 0 {
		t.Error("slow-hit counter stayed 0")
	}
	snap := sink.Slow.Snapshot(nil)
	if len(snap) == 0 {
		t.Fatal("slowlog ring is empty")
	}
	if snap[0].ID == 0 {
		t.Error("slowlog trace has no id")
	}
	if snap[0].NStages == 0 {
		t.Error("slowlog trace has no stages")
	}
	// The unsampled slow frame must not have leaked into the sampled ring.
	if got := sink.Ring.Len(); got != 0 {
		t.Errorf("sampled ring has %d traces, want 0", got)
	}

	// And the admin endpoint renders it as JSON.
	reg := obs.NewRegistry()
	sink.Register(reg)
	var sb strings.Builder
	if err := obs.WriteTracesJSON(&sb, sink.Slow, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Traces []struct {
			TraceID string `json:"trace_id"`
			Stages  []struct {
				Stage string `json:"stage"`
				Hop   string `json:"hop"`
				Ns    int64  `json:"ns"`
			} `json:"stages"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("slowlog JSON does not parse: %v\n%s", err, sb.String())
	}
	if len(doc.Traces) == 0 || len(doc.Traces[0].Stages) == 0 {
		t.Fatalf("slowlog JSON missing traces/stages:\n%s", sb.String())
	}
}

// TestTraceSelfSample pins server-side sampling: with SampleEvery=2 and plain
// untraced clients, every second frame lands in the sampled ring, and the
// responses stay byte-identical to the untraced protocol (no echo without the
// request flag).
func TestTraceSelfSample(t *testing.T) {
	eng := testEngine(t, 400, 19)
	addr, srv, _ := startServer(t, eng, 0)
	sink := &obs.TraceSink{Ring: obs.NewTraceRing(64), SampleEvery: 2}
	srv.SetTraceSink(sink)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pairs := randomPairs(eng.N(), 64, 19)
	want, err := eng.AdjacentMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 10
	for f := 0; f < frames; f++ {
		got, err := c.AdjacentMany(pairs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("frame %d pair %d: got %v, want %v", f, i, got[i], want[i])
			}
		}
	}
	// Client Dial does one Info frame too; sampling counts all frames, so the
	// exact count depends on op interleaving — bound it instead.
	n := sink.Ring.Len()
	if n < frames/2-1 || n > frames/2+2 {
		t.Errorf("sampled %d traces from %d frames at 1/2, want about %d", n, frames, frames/2)
	}
	if sink.Sampled.Load() == 0 {
		t.Error("sampled counter stayed 0")
	}
}

// TestServeFrameTraceDisabledZeroAlloc asserts the tentpole's perf guarantee:
// with a sink installed but sampling and slowlog off, the serve path
// allocates nothing per frame (the trace machinery must stay entirely off the
// untraced path).
func TestServeFrameTraceDisabledZeroAlloc(t *testing.T) {
	srv := NewServer(testEngine(t, 2000, 23), 0)
	srv.SetTraceSink(&obs.TraceSink{Ring: obs.NewTraceRing(16), Slow: obs.NewTraceRing(16)})
	req := appendQueryReq(nil, randomPairs(2000, 64, 23))
	bufs := &connBuffers{resp: make([]byte, 0, 4096)}
	allocs := testing.AllocsPerRun(200, func() {
		start := time.Now()
		resp, _ := srv.serveFrame(req, bufs, start, 1, 1)
		bufs.resp = resp[:0]
	})
	if allocs != 0 {
		t.Errorf("serveFrame with tracing disabled allocates %.1f/op, want 0", allocs)
	}
}

// TestRouterOpInfoCaps: the router advertises capTrace downstream, so a
// tracing client treats a fleet behind a router exactly like a single traced
// server.
func TestRouterOpInfoCaps(t *testing.T) {
	_, engines := shardEngines(t, 400, 3, core.ShardRange, 7)
	addrs, _ := startShardFleet(t, engines)
	addr, _ := startRouter(t, addrs, 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	caps, err := c.Caps()
	if err != nil {
		t.Fatal(err)
	}
	if caps&capTrace == 0 {
		t.Fatalf("router caps %#x missing capTrace", caps)
	}
}
