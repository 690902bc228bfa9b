package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adjserve"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labelstore"
)

// storeFixture encodes a power-law graph (arena-backed v2 store) to a file.
func storeFixture(t *testing.T) (string, *graph.Graph) {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(250, 2.5, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, ok := lab.Arena()
	if !ok {
		t.Fatal("labeling not arena-backed")
	}
	bitLens := make([]int, g.N())
	for v := range bitLens {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		bitLens[v] = l.Len()
	}
	store, err := labelstore.NewArenaFile(lab.Scheme(),
		map[string]string{"n": strconv.Itoa(g.N())}, slab, bitLens)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "labels.pllb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := labelstore.Write(f, store); err != nil {
		t.Fatal(err)
	}
	return path, g
}

// v1StoreFixture rewrites storeFixture's labeling in format v1, whose
// payloads are not word-aligned: Open loads it through the copying path.
func v1StoreFixture(t *testing.T) (string, *graph.Graph) {
	t.Helper()
	v2Path, g := storeFixture(t)
	mf, err := labelstore.Open(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	path := filepath.Join(t.TempDir(), "labels-v1.pllb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := labelstore.Write(f, &labelstore.File{Scheme: mf.Scheme, Params: mf.Params, Labels: mf.Labels}); err != nil {
		t.Fatal(err)
	}
	return path, g
}

// logAttr extracts one key=value attribute from a slog text line.
func logAttr(line, key string) (string, bool) {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return strings.Trim(v, `"`), true
		}
	}
	return "", false
}

// addrWriter scans the daemon's stdout for the msg=listening readiness line
// (and the msg=admin line, when the admin plane is enabled) and delivers the
// resolved addresses from their addr attributes.
type addrWriter struct {
	mu        sync.Mutex
	buf       strings.Builder
	addrC     chan string
	adminC    chan string
	sent      bool
	adminSent bool
}

func newAddrWriter() *addrWriter {
	return &addrWriter{addrC: make(chan string, 1), adminC: make(chan string, 1)}
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for _, line := range strings.Split(w.buf.String(), "\n") {
		if !w.sent && strings.Contains(line, "msg=listening") {
			if addr, ok := logAttr(line, "addr"); ok {
				w.addrC <- addr
				w.sent = true
			}
		}
		if !w.adminSent && strings.Contains(line, "msg=admin") {
			if addr, ok := logAttr(line, "addr"); ok {
				w.adminC <- addr
				w.adminSent = true
			}
		}
	}
	return len(p), nil
}

func (w *addrWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestServeAndDrain boots the daemon on a free port, checks remote answers
// against the graph, and verifies the shutdown path drains cleanly — once
// over a mapped v2 store and once over a v1 store, which Open copies.
func TestServeAndDrain(t *testing.T) {
	for _, v1 := range []bool{false, true} {
		fixture, wantMode := storeFixture, "mode=mmap"
		if v1 {
			fixture, wantMode = v1StoreFixture, "mode=copied"
		}
		path, g := fixture(t)
		out := newAddrWriter()
		stop := make(chan struct{})
		errC := make(chan error, 1)
		args := []string{"-labels", path, "-addr", "127.0.0.1:0"}
		go func() { errC <- run(args, out, stop) }()
		var addr string
		select {
		case addr = <-out.addrC:
		case err := <-errC:
			t.Fatalf("v1=%v: daemon exited early: %v\n%s", v1, err, out.String())
		case <-time.After(10 * time.Second):
			t.Fatalf("v1=%v: no listening line\n%s", v1, out.String())
		}
		c, err := adjserve.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := c.Info(); err != nil || n != g.N() {
			t.Fatalf("v1=%v: Info = %d, %v; want %d", v1, n, err, g.N())
		}
		for u := 0; u < 40; u++ {
			for v := u + 1; v < 40; v += 3 {
				got, err := c.Adjacent(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if want := g.HasEdge(u, v); got != want {
					t.Fatalf("v1=%v: (%d,%d) = %v, want %v", v1, u, v, got, want)
				}
			}
		}
		c.Close()
		close(stop)
		select {
		case err := <-errC:
			if err != nil {
				t.Fatalf("v1=%v: daemon exit: %v\n%s", v1, err, out.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("v1=%v: daemon did not drain\n%s", v1, out.String())
		}
		if !strings.Contains(out.String(), "served") {
			t.Errorf("v1=%v: missing serve summary:\n%s", v1, out.String())
		}
		if !strings.Contains(out.String(), wantMode) {
			t.Errorf("v1=%v: loaded-mode line missing %q:\n%s", v1, wantMode, out.String())
		}
	}
}

// TestAdminEndpoint boots the daemon with the admin plane enabled, drives
// queries, and checks the whole observability contract over real HTTP:
// health and readiness, the metric families the issue promises, counter
// values matching the traffic driven, and readiness flipping 503 on drain.
func TestAdminEndpoint(t *testing.T) {
	path, g := storeFixture(t)
	out := newAddrWriter()
	stop := make(chan struct{})
	errC := make(chan error, 1)
	go func() {
		errC <- run([]string{"-labels", path, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0"}, out, stop)
	}()
	var addr, admin string
	for addr == "" || admin == "" {
		select {
		case addr = <-out.addrC:
		case admin = <-out.adminC:
		case err := <-errC:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		case <-time.After(10 * time.Second):
			t.Fatalf("no readiness lines\n%s", out.String())
		}
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + admin + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d while serving", code)
	}

	c, err := adjserve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][2]int, 0, 100)
	for u := 0; u < 10; u++ {
		for v := 10; v < 20; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	if _, err := c.AdjacentMany(pairs, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()

	_, metrics := get("/metrics")
	wantSeries := []string{
		"adjserve_queries_total 100",
		"engine_queries_total 100",
		"engine_batches_total 1",
		"adjserve_frames_total 1",
		"adjserve_connections_total 1",
	}
	for _, s := range wantSeries {
		if !strings.Contains(metrics, s+"\n") {
			t.Errorf("scrape missing %q", s)
		}
	}
	// The labelstore counters are package-level and accumulate across every
	// Open in the test process, so assert presence, not exact values.
	wantFamilies := []string{
		"adjserve_bytes_in_total", "adjserve_bytes_out_total",
		"adjserve_frame_latency_ns_bucket", "adjserve_traffic_bytes_total",
		"engine_branch_thin_total", "engine_batch_pairs_sum",
		`labelstore_open_total{mode="mmap"}`, "labelstore_open_ns_count",
		"labelstore_mapped_bytes", "labelstore_blob_bytes_total",
		"go_goroutines", "go_heap_alloc_bytes", "process_uptime_seconds_total",
	}
	for _, f := range wantFamilies {
		if !strings.Contains(metrics, "\n"+f) {
			t.Errorf("scrape missing family %s", f)
		}
	}
	_ = g

	close(stop)
	select {
	case err := <-errC:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not drain\n%s", out.String())
	}
	// Admin shut down after the drain: the port no longer answers.
	if _, err := http.Get("http://" + admin + "/healthz"); err == nil {
		t.Error("admin endpoint still answering after shutdown")
	}
}

// TestServeShardStore boots the daemon on one shard of a 2-way split and
// checks the residency contract over the wire: the loaded line names the
// shard, owned pairs answer exactly, and a misrouted pair comes back as an
// error frame instead of a silently-wrong answer decoded from a stub.
func TestServeShardStore(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(250, 2.5, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, order, ok := lab.ArenaLayout()
	if !ok {
		t.Fatal("labeling not arena-backed")
	}
	bitLens := make([]int, g.N())
	for v := range bitLens {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		bitLens[v] = l.Len()
	}
	arenas, err := core.ShardLabelArenas(slab, bitLens, order, 2, core.ShardRange)
	if err != nil {
		t.Fatal(err)
	}
	store, err := labelstore.NewShardArenaFile(lab.Scheme(),
		map[string]string{"n": strconv.Itoa(g.N())}, arenas[0].Slab, arenas[0].BitLens, order,
		core.ShardMap{Count: 2, Index: 0, Fn: core.ShardRange})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "labels.pllb.shard0")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := labelstore.Write(f, store); err != nil {
		t.Fatal(err)
	}

	out := newAddrWriter()
	stop := make(chan struct{})
	errC := make(chan error, 1)
	go func() { errC <- run([]string{"-labels", path, "-addr", "127.0.0.1:0"}, out, stop) }()
	var addr string
	select {
	case addr = <-out.addrC:
	case err := <-errC:
		t.Fatalf("daemon exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("no listening line\n%s", out.String())
	}
	if !strings.Contains(out.String(), "shard=0/2 fn=range") {
		t.Errorf("loaded line does not name the shard:\n%s", out.String())
	}
	c, err := adjserve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Shard 0 of a range split owns 0..n/2: pairs touching an owned vertex
	// answer; a thin–thin pair of two foreign vertices must be refused.
	for u := 0; u < 30; u++ {
		for v := u + 1; v < 30; v += 3 {
			got, err := c.Adjacent(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if want := g.HasEdge(u, v); got != want {
				t.Fatalf("(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
	eng, err := core.NewQueryEngineFromPermutedArena(arenas[0].Slab, arenas[0].BitLens, order)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetShard(core.ShardMap{Count: 2, Index: 0, Fn: core.ShardRange}); err != nil {
		t.Fatal(err)
	}
	foreign := -1
	for v := g.N() / 2; v < g.N()-1; v++ {
		if !eng.Resident(v) && !eng.Resident(v+1) {
			foreign = v
			break
		}
	}
	if foreign < 0 {
		t.Skip("every tail vertex is fat on this fixture")
	}
	if _, err := c.Adjacent(foreign, foreign+1); err == nil {
		t.Fatalf("misrouted pair (%d,%d) answered instead of erroring", foreign, foreign+1)
	}
	close(stop)
	if err := <-errC; err != nil {
		t.Fatalf("daemon exit: %v\n%s", err, out.String())
	}
}

func TestMissingLabelsFlag(t *testing.T) {
	if err := run(nil, newAddrWriter(), nil); err == nil {
		t.Fatal("no -labels accepted")
	}
}

func TestUnservableStore(t *testing.T) {
	// An empty adjacency-matrix store builds an empty engine and serves; a
	// pre-closed stop channel makes run drain immediately either way, so
	// this pins down "run returns promptly, no error other than a refusal".
	path := filepath.Join(t.TempDir(), "bad.pllb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := labelstore.Write(f, &labelstore.File{Scheme: "adjmatrix", Params: map[string]string{"n": "0"}}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	errC := make(chan error, 1)
	go func() {
		errC <- run([]string{"-labels", path, "-addr", "127.0.0.1:0"}, newAddrWriter(), stop)
	}()
	select {
	case <-errC: // refusal or an immediately-drained serve: both fine
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return with a closed stop channel")
	}
}
