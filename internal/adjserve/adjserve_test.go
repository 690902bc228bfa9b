package adjserve

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// testEngine labels a power-law graph and builds the serving engine.
func testEngine(t testing.TB, n int, seed int64) *core.QueryEngine {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(n, 2.5, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewQueryEngine(lab)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// startServer serves eng on a loopback listener and returns the address, the
// server, and a channel carrying Serve's return value.
func startServer(t testing.TB, eng *core.QueryEngine, maxBatch int) (string, *Server, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, maxBatch)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), srv, served
}

func randomPairs(n, count int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]int, count)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	return pairs
}

// TestLoopbackEquivalence is the e2e acceptance check: remote batch answers
// are bit-for-bit identical to the in-process engine on the same labeling,
// across batch sizes that exercise single-frame, multi-frame and sub-byte
// bit-vector paths.
func TestLoopbackEquivalence(t *testing.T) {
	eng := testEngine(t, 400, 3)
	addr, srv, _ := startServer(t, eng, 0)
	for _, batch := range []int{1, 3, 64, 4096} {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		c.MaxBatch = batch
		pairs := randomPairs(eng.N(), 5000, int64(batch))
		want, err := eng.AdjacentMany(pairs, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.AdjacentMany(pairs, nil)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if len(got) != len(want) {
			t.Fatalf("batch=%d: %d answers, want %d", batch, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d: pair %d %v: got %v, want %v", batch, i, pairs[i], got[i], want[i])
			}
		}
		c.Close()
	}
	if st := srv.Traffic.Stats(); st.Fetches != 4*5000 {
		t.Errorf("served %d queries, want %d", st.Fetches, 4*5000)
	}
}

func TestSingleQueryAndInfo(t *testing.T) {
	eng := testEngine(t, 120, 9)
	addr, _, _ := startServer(t, eng, 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n, err := c.Info()
	if err != nil || n != eng.N() {
		t.Fatalf("Info = %d, %v; want %d", n, err, eng.N())
	}
	for u := 0; u < 30; u++ {
		for v := u; v < 30; v++ {
			want, werr := eng.Adjacent(u, v)
			got, gerr := c.Adjacent(u, v)
			if werr != nil || gerr != nil || got != want {
				t.Fatalf("(%d,%d): remote %v/%v, local %v/%v", u, v, got, gerr, want, werr)
			}
		}
	}
}

// TestOversizedBatchErrorFrame: a batch above the server's limit is rejected
// with an error frame that poisons only that request — the connection
// survives and later batches work.
func TestOversizedBatchErrorFrame(t *testing.T) {
	eng := testEngine(t, 100, 5)
	addr, _, _ := startServer(t, eng, 8)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.MaxBatch = 64 // client happily frames more than the server admits
	_, err = c.AdjacentMany(randomPairs(eng.N(), 16, 1), nil)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("oversized batch: err = %v, want RemoteError", err)
	}
	// Same connection, admissible batch: must succeed.
	pairs := randomPairs(eng.N(), 8, 2)
	want, _ := eng.AdjacentMany(pairs, nil)
	got, err := c.AdjacentMany(pairs, nil)
	if err != nil {
		t.Fatalf("follow-up batch after error frame: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d diverged after error frame", i)
		}
	}
}

// TestOutOfRangeVertexErrorFrame: engine-level errors surface as
// RemoteErrors without killing the connection.
func TestOutOfRangeVertexErrorFrame(t *testing.T) {
	eng := testEngine(t, 50, 2)
	addr, _, _ := startServer(t, eng, 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Adjacent(0, eng.N()); err == nil {
		t.Fatal("out-of-range vertex answered without error")
	} else {
		var remote *RemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("err = %v, want RemoteError", err)
		}
	}
	if _, err := c.Adjacent(0, 1); err != nil {
		t.Fatalf("connection unusable after range error: %v", err)
	}
}

// TestClientReconnect: a server restart kills in-flight connections; the
// client's next call after the failure redials transparently and answers
// correctly against the new server.
func TestClientReconnect(t *testing.T) {
	eng := testEngine(t, 150, 7)
	addr, srv, served := startServer(t, eng, 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Adjacent(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve returned %v, want ErrClosed", err)
	}
	// Restart on the same address.
	var ln net.Listener
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("relisten on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	srv2 := NewServer(eng, 0)
	go srv2.Serve(ln)
	defer srv2.Close()
	// The old connection is dead; the call that discovers that may fail.
	// Every later call must succeed via the redial path.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err = c.Adjacent(3, 4); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected: %v", err)
		}
	}
	pairs := randomPairs(eng.N(), 200, 4)
	want, _ := eng.AdjacentMany(pairs, nil)
	got, err := c.AdjacentMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d diverged after reconnect", i)
		}
	}
}

// TestGracefulClose: Close drains — Serve returns ErrClosed, double Close is
// fine, and a Serve attempt after Close refuses.
func TestGracefulClose(t *testing.T) {
	eng := testEngine(t, 80, 1)
	addr, srv, served := startServer(t, eng, 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Adjacent(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve = %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := srv.Serve(ln); !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve after Close = %v, want ErrClosed", err)
	}
}

// TestConcurrentClients hammers one engine through one shared pipelining
// client AND per-goroutine clients simultaneously; run under -race this is
// the data-race check for the whole serving path.
func TestConcurrentClients(t *testing.T) {
	eng := testEngine(t, 300, 11)
	addr, _, _ := startServer(t, eng, 0)
	shared, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	shared.MaxBatch = 100 // force multi-frame pipelining
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := shared
			if w%2 == 0 {
				own, err := Dial(addr)
				if err != nil {
					errs[w] = err
					return
				}
				defer own.Close()
				own.MaxBatch = 100
				c = own
			}
			for round := 0; round < 20; round++ {
				pairs := randomPairs(eng.N(), 257, int64(w*1000+round))
				want, err := eng.AdjacentMany(pairs, nil)
				if err != nil {
					errs[w] = err
					return
				}
				got, err := c.AdjacentMany(pairs, nil)
				if err != nil {
					errs[w] = err
					return
				}
				for i := range want {
					if got[i] != want[i] {
						errs[w] = errors.New("answer diverged under concurrency")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}
