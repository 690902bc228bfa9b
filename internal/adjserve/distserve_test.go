package adjserve

import (
	"errors"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/schemes/distance"
)

func netListen(t testing.TB) (net.Listener, error) {
	t.Helper()
	return net.Listen("tcp", "127.0.0.1:0")
}

// testDistEngines builds a pll and a bdist engine over the same power-law
// graph (degree layout, the serving default).
func testDistEngines(t testing.TB, n int, seed int64) map[string]*core.DistEngine {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(n, 2.5, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	engines := make(map[string]*core.DistEngine, 2)
	pll, err := distance.PLLScheme{}.EncodeArena(g, 2, core.LayoutDegree)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := distance.Scheme{Alpha: 2.5, F: 3}.EncodeArena(g, 2, core.LayoutDegree)
	if err != nil {
		t.Fatal(err)
	}
	for kind, a := range map[string]*core.DistArena{"pll": pll, "bdist": bd} {
		eng, err := core.NewDistEngine(a)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		engines[kind] = eng
	}
	return engines
}

// startDistServer serves a distance-only server (no adjacency engine).
func startDistServer(t testing.TB, eng *core.DistEngine, maxBatch int) (string, *Server) {
	t.Helper()
	srv := NewServer(nil, maxBatch)
	srv.SetDistEngine(eng)
	ln, err := netListen(t)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), srv
}

// TestDistLoopbackEquivalence: remote distance answers are identical to the
// in-process engine, across both schemes and batch sizes that exercise
// single- and multi-frame paths.
func TestDistLoopbackEquivalence(t *testing.T) {
	engines := testDistEngines(t, 400, 3)
	for kind, eng := range engines {
		addr, _ := startDistServer(t, eng, 0)
		for _, batch := range []int{1, 64, 4096} {
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			c.MaxBatch = batch
			pairs := randomPairs(eng.N(), 3000, int64(batch))
			want, err := eng.DistMany(pairs, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.DistMany(pairs, nil)
			if err != nil {
				t.Fatalf("%s batch=%d: %v", kind, batch, err)
			}
			for i := range want {
				w := want[i]
				if w > 254 {
					w = graph.Unreachable // wire clamp; unhit on log-diameter graphs
				}
				if got[i] != w {
					t.Fatalf("%s batch=%d: pair %d %v = %d, engine says %d",
						kind, batch, i, pairs[i], got[i], want[i])
				}
			}
			d, err := c.Dist(pairs[0][0], pairs[0][1])
			if err != nil || d != got[0] {
				t.Fatalf("%s: Dist = %d, %v; DistMany said %d", kind, d, err, got[0])
			}
			c.Close()
		}
	}
}

// TestDistPlaneErrors: a frame for a plane the server does not hold gets an
// error frame (connection stays up), and info/shard-info work on a
// distance-only server so routers can admit it.
func TestDistPlaneErrors(t *testing.T) {
	engines := testDistEngines(t, 200, 5)
	addr, _ := startDistServer(t, engines["pll"], 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Adjacent(0, 1); err == nil || !strings.Contains(err.Error(), "no adjacency engine") {
		t.Errorf("opQuery on distance-only server: err = %v", err)
	}
	n, err := c.Info()
	if err != nil || n != engines["pll"].N() {
		t.Errorf("Info = %d, %v; want %d", n, err, engines["pll"].N())
	}
	si, err := c.ShardInfo()
	if err != nil {
		t.Fatal(err)
	}
	if si.N != n || si.Map.Count != 1 || si.Map.Index != 0 {
		t.Errorf("ShardInfo = %+v", si)
	}
	// Still alive after the error frame, and dist answers flow.
	if _, err := c.DistMany([][2]int{{0, 1}, {2, 3}}, nil); err != nil {
		t.Errorf("DistMany after error frame: %v", err)
	}

	// The converse: an adjacency-only server refuses distance frames.
	aAddr, _, _ := startServer(t, testEngine(t, 100, 7), 0)
	ac, err := Dial(aAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	var rerr *RemoteError
	if _, err := ac.Dist(0, 1); err == nil || !errors.As(err, &rerr) || !strings.Contains(err.Error(), "no distance engine") {
		t.Errorf("opDist on adjacency server: err = %v", err)
	}
	if _, err := ac.Adjacent(0, 1); err != nil {
		t.Errorf("Adjacent after error frame: %v", err)
	}
}

// TestRouterReplicaFleet: a router fronting R identical distance servers
// admits them as a replica fleet and answers distance batches identically to
// the engine; a sharded partition refuses distance frames with a clear error.
func TestRouterReplicaFleet(t *testing.T) {
	engines := testDistEngines(t, 400, 11)
	for kind, eng := range engines {
		addrs := make([]string, 3)
		for i := range addrs {
			addrs[i], _ = startDistServer(t, eng, 0)
		}
		addr, r := startRouter(t, addrs, 0)
		if !r.replicas {
			t.Fatalf("%s: fleet not admitted as replicas", kind)
		}
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		pairs := randomPairs(eng.N(), 4000, 17)
		want, err := eng.DistMany(pairs, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.DistMany(pairs, nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: pair %d %v = %d, engine says %d", kind, i, pairs[i], got[i], want[i])
			}
		}
		// Every replica saw traffic: owner-of-u spreads a uniform workload.
		for s := range addrs {
			if r.metrics.Upstreams[s].Pairs.Load() == 0 {
				t.Errorf("%s: replica %d answered no pairs", kind, s)
			}
		}
		c.Close()
	}

	// Partition fleet: distance frames are refused, adjacency still works.
	full, shards := shardEngines(t, 300, 2, core.ShardRange, 9)
	addrs, _ := startShardFleet(t, shards)
	addr, r := startRouter(t, addrs, 0)
	if r.replicas {
		t.Fatal("2-shard partition admitted as replicas")
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var rerr *RemoteError
	if _, err := c.Dist(0, 1); err == nil || !errors.As(err, &rerr) || !strings.Contains(err.Error(), "replica fleet") {
		t.Errorf("opDist on partition router: err = %v", err)
	}
	if _, err := c.AdjacentMany(randomPairs(full.N(), 100, 3), nil); err != nil {
		t.Errorf("adjacency after refused dist frame: %v", err)
	}
}

// TestRouterReplicaMismatch: replicas disagreeing on n are refused at
// handshake.
func TestRouterReplicaMismatch(t *testing.T) {
	engines := testDistEngines(t, 200, 13)
	small := testDistEngines(t, 100, 13)
	a1, _ := startDistServer(t, engines["pll"], 0)
	a2, _ := startDistServer(t, small["pll"], 0)
	if _, err := NewRouter([]string{a1, a2}, 0); err == nil || !strings.Contains(err.Error(), "serves 100 vertices") {
		t.Errorf("mismatched replica fleet: err = %v", err)
	}
}
