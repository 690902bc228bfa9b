package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/adjserve"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/labelstore"
	"repro/internal/schemes/distance"
)

// distStoreFixture encodes a pll distance store (degree layout) to a file and
// returns the path plus an in-process engine over the same labels for
// ground truth.
func distStoreFixture(t *testing.T) (string, *core.DistEngine) {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(250, 2.5, 2, 23)
	if err != nil {
		t.Fatal(err)
	}
	arena, err := distance.PLLScheme{}.EncodeArena(g, 2, core.LayoutDegree)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewDistEngine(arena)
	if err != nil {
		t.Fatal(err)
	}
	store, err := labelstore.NewDistArenaFile(distance.PLLScheme{}.Name(),
		map[string]string{"n": strconv.Itoa(g.N())}, arena)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dists.pllb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := labelstore.Write(f, store); err != nil {
		t.Fatal(err)
	}
	return path, eng
}

// TestServeDistanceStore boots the daemon on a distance store and checks the
// remote distance plane end to end: the loaded line declares the plane, the
// engine answers match, and adjacency frames are refused without killing the
// connection.
func TestServeDistanceStore(t *testing.T) {
	path, eng := distStoreFixture(t)
	out := newAddrWriter()
	stop := make(chan struct{})
	errC := make(chan error, 1)
	args := []string{"-labels", path, "-addr", "127.0.0.1:0"}
	go func() { errC <- run(args, out, stop) }()
	var addr string
	select {
	case addr = <-out.addrC:
	case err := <-errC:
		t.Fatalf("daemon exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("no listening line\n%s", out.String())
	}
	c, err := adjserve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.Info(); err != nil || n != eng.N() {
		t.Fatalf("Info = %d, %v; want %d", n, err, eng.N())
	}
	pairs := make([][2]int, 0, 300)
	for u := 0; u < 30; u++ {
		for v := 0; v < eng.N(); v += 29 {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	want, err := eng.DistMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DistMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %v = %d, engine says %d", pairs[i], got[i], want[i])
		}
	}
	if _, err := c.Adjacent(0, 1); err == nil || !strings.Contains(err.Error(), "no adjacency engine") {
		t.Errorf("adjacency frame on distance daemon: err = %v", err)
	}
	if _, err := c.Dist(0, 1); err != nil {
		t.Errorf("distance after refused adjacency frame: %v", err)
	}
	c.Close()
	close(stop)
	select {
	case err := <-errC:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not drain\n%s", out.String())
	}
	if !strings.Contains(out.String(), "plane=distance/pll") {
		t.Errorf("loaded line does not declare the distance plane:\n%s", out.String())
	}
}
