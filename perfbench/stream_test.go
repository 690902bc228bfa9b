package main

import (
	"slices"
	"testing"
)

func testGraphStream(t *testing.T, w workload, seed int64) *stream {
	t.Helper()
	g, err := genGraph(w.n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return newStream(g, w, seed)
}

func TestStreamSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		w.n = 2000 // the stream's rules do not depend on the graph's size
		a := testGraphStream(t, w, 7)
		b := testGraphStream(t, w, 7)
		if !slices.Equal(a.pool, b.pool) {
			t.Errorf("%s: seed 7 drew two different pools", w.name)
		}
		c := testGraphStream(t, w, 8)
		if slices.Equal(a.pool, c.pool) {
			t.Errorf("%s: seeds 7 and 8 drew the same pool", w.name)
		}
	}
}

func TestStreamNeverRepeatsAFrame(t *testing.T) {
	for _, w := range workloads {
		w.n = 2000
		st := testGraphStream(t, w, 3)
		if len(st.pool) < 1<<21 {
			t.Errorf("%s: pool of %d pairs, want at least 2^21", w.name, len(st.pool))
		}
		if len(st.pool)%w.batch != 0 {
			t.Fatalf("%s: batch %d does not divide the pool", w.name, w.batch)
		}
		// Two cycles, so the step from the last frame of a cycle back to the
		// first is covered too.
		for k := int64(1); k < 2*int64(st.frames()); k++ {
			if slices.Equal(st.frame(k-1), st.frame(k)) {
				t.Fatalf("%s: frames %d and %d are equal", w.name, k-1, k)
			}
		}
		seen := make(map[*[2]int]int64)
		for k := int64(0); k < int64(st.frames()); k++ {
			f := st.frame(k)
			if len(f) != w.batch {
				t.Fatalf("%s: frame %d has %d pairs, want %d", w.name, k, len(f), w.batch)
			}
			if prev, ok := seen[&f[0]]; ok {
				t.Fatalf("%s: frames %d and %d repeat within one cycle", w.name, prev, k)
			}
			seen[&f[0]] = k
		}
	}
}

func TestZipfStreamFavoursHubs(t *testing.T) {
	g, err := genGraph(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	byRank := g.VerticesByDegreeDesc()
	pairs := drawPairs(g.N(), byRank, 5, 1<<14)
	top := 0
	for _, p := range pairs {
		if p[0] == byRank[0] {
			top++
		}
	}
	// Zipf(1.1) over 2000 ranks puts several percent of draws on rank 0;
	// uniform would put 1/2000.
	if top < len(pairs)/50 {
		t.Errorf("highest-degree vertex drawn %d of %d times; endpoints are not Zipf over degree rank", top, len(pairs))
	}
}
