package adjserve

import (
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// servingTier is what the frame-loop tests need of a serving tier: both
// Server and Router answer the same downstream protocol through it.
type servingTier interface {
	Serve(ln net.Listener) error
	Close() error
	SetMaxConns(n int)
	SetTraceSink(sink *obs.TraceSink)
}

// tierCase is one serving tier under a frame-loop test, built but not yet
// serving so the test can configure it first: a single server over the whole
// labeling, a router over a 3-shard partition of it, or a router over 2
// replicas of it.
type tierCase struct {
	name string
	tier servingTier
	full *core.QueryEngine // the whole labeling, the answers' reference
	// errorFrames and connsShed read the tier's downstream counters.
	errorFrames, connsShed func() int64
	// selfStages is the exact set of HopSelf stages a captured query frame
	// records at this tier when the capture was decided before the frame
	// was answered (traced or sampled); slowStages is the set a slow-only
	// capture records.
	selfStages, slowStages []uint8
	// shardStages, when non-nil, is the exact stage set recorded under each
	// upstream's hop label by a traced or sampled routed frame.
	shardStages []uint8
}

// tierCases builds the three tiers over one n-vertex labeling.
func tierCases(t *testing.T, n int, seed int64) []tierCase {
	t.Helper()
	full, shards := shardEngines(t, n, 3, core.ShardRange, seed)
	srv := NewServer(full, 0)
	shardAddrs, _ := startShardFleet(t, shards)
	sharded, err := NewRouter(shardAddrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	// Two plain servers over the whole store handshake as a replica fleet.
	replicaAddrs, _ := startShardFleet(t, []*core.QueryEngine{full, full})
	replicas, err := NewRouter(replicaAddrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replicas.Close() })

	routed := func(name string, r *Router) tierCase {
		return tierCase{
			name: name, tier: r, full: full,
			errorFrames: r.Metrics().ErrorFrames.Load,
			connsShed:   r.Metrics().ConnsShed.Load,
			selfStages: []uint8{obs.StageScatter, obs.StageUpstream, obs.StageGather,
				obs.StageQueue, obs.StageRead},
			slowStages:  []uint8{obs.StageQueue, obs.StageRead, obs.StageUpstream},
			shardStages: []uint8{obs.StageNet, obs.StageQueue, obs.StageRead, obs.StageProbe},
		}
	}
	return []tierCase{
		{
			name: "server", tier: srv, full: full,
			errorFrames: srv.Metrics().ErrorFrames.Load,
			connsShed:   srv.Metrics().ConnsShed.Load,
			selfStages:  []uint8{obs.StageQueue, obs.StageRead, obs.StageProbe},
			slowStages:  []uint8{obs.StageQueue, obs.StageRead, obs.StageProbe},
		},
		routed("router-3-shards", sharded),
		routed("router-2-replicas", replicas),
	}
}

// start serves the tier on a loopback listener and returns its address and a
// channel carrying Serve's return value.
func (tc tierCase) start(t *testing.T) (string, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- tc.tier.Serve(ln) }()
	t.Cleanup(func() { tc.tier.Close() })
	return ln.Addr().String(), served
}

// checkStages fails the test unless tr's stages at hop are exactly want.
func checkStages(t *testing.T, what string, tr *obs.Trace, hop uint8, want []uint8) {
	t.Helper()
	got := make(map[uint8]bool)
	for _, st := range tr.Stages[:tr.NStages] {
		if st.Hop == hop {
			got[st.Stage] = true
		}
	}
	ok := len(got) == len(want)
	for _, s := range want {
		ok = ok && got[s]
	}
	if !ok {
		var names []string
		for _, st := range tr.Stages[:tr.NStages] {
			names = append(names, obs.StageName(st.Stage)+"@"+obs.HopName(st.Hop))
		}
		t.Errorf("%s: stages at %s = %v, want exactly %v", what, obs.HopName(hop), names, stageNames(want))
	}
}

func stageNames(stages []uint8) []string {
	names := make([]string, len(stages))
	for i, s := range stages {
		names[i] = obs.StageName(s)
	}
	return names
}

// checkShardStages checks every upstream hop label a routed trace carries
// against the tier's per-upstream stage set, and that at least one is there.
func checkShardStages(t *testing.T, what string, tc tierCase, tr *obs.Trace) {
	t.Helper()
	if tc.shardStages == nil {
		return
	}
	hops := make(map[uint8]bool)
	for _, st := range tr.Stages[:tr.NStages] {
		if st.Hop != obs.HopSelf {
			hops[st.Hop] = true
		}
	}
	if len(hops) == 0 {
		t.Errorf("%s: routed trace carries no upstream stages", what)
	}
	for h := range hops {
		checkStages(t, what, tr, h, tc.shardStages)
	}
}

// TestOversizedPayloadErrorFrame: a frame header announcing more than
// maxFramePayload bytes is still framed honestly, so every tier skips the
// payload, answers one error frame (counted in ErrorFrames), and keeps
// answering later frames on the same connection.
func TestOversizedPayloadErrorFrame(t *testing.T) {
	for _, tc := range tierCases(t, 300, 29) {
		t.Run(tc.name, func(t *testing.T) {
			addr, _ := tc.start(t)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			readFrame := func() []byte {
				t.Helper()
				var hdr [frameHeaderLen]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					t.Fatal(err)
				}
				resp := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
				if _, err := io.ReadFull(conn, resp); err != nil {
					t.Fatal(err)
				}
				return resp
			}
			before := tc.errorFrames()
			const plen = maxFramePayload + 1
			hdr := frameHeader(plen)
			if _, err := conn.Write(append(hdr[:], make([]byte, plen)...)); err != nil {
				t.Fatal(err)
			}
			resp := readFrame()
			if len(resp) == 0 || resp[0] != statusErr || !strings.Contains(string(resp[1:]), "exceeds limit") {
				t.Fatalf("oversized frame answered %q, want an \"exceeds limit\" error frame", resp)
			}
			if !strings.Contains(string(resp), "frame of 16777217 bytes") {
				t.Errorf("error frame %q does not name the announced length", resp[1:])
			}
			if got := tc.errorFrames() - before; got != 1 {
				t.Errorf("ErrorFrames moved by %d, want 1", got)
			}

			req := appendPairsReq(nil, opQuery, 0, [][2]int{{0, 1}, {2, 3}})
			hdr = frameHeader(len(req))
			if _, err := conn.Write(append(hdr[:], req...)); err != nil {
				t.Fatal(err)
			}
			resp = readFrame()
			if len(resp) == 0 || resp[0] != statusOK {
				t.Fatalf("follow-up frame answered %q, want OK", resp)
			}
			want, err := tc.full.AdjacentMany([][2]int{{0, 1}, {2, 3}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := resp[2] // status, count 2, one answer byte MSB-first
			for i, w := range want {
				if (got&(0x80>>i) != 0) != w {
					t.Fatalf("follow-up pair %d answered %v, want %v", i, !w, w)
				}
			}
		})
	}
}
