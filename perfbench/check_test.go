package main

import (
	"testing"
)

func TestCheckCatchesCorruptedAdjacency(t *testing.T) {
	g, err := genGraph(3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	w := workload{name: "t", n: g.N(), batch: 64}
	st := newStream(g, w, 11)
	// Frames with answers as the graph gives them, plus one edge of the
	// graph so some answers are true.
	var samples []sample
	for k := int64(0); k < 8; k++ {
		s := sample{k: k}
		for _, p := range st.frame(k) {
			s.adj = append(s.adj, g.HasEdge(p[0], p[1]))
		}
		samples = append(samples, s)
	}
	if wrong, checked := checkSamples(g, st, samples); wrong != 0 || checked != 8*64 {
		t.Fatalf("true answers: %d wrong frames of %d pairs checked, want 0 of %d", wrong, checked, 8*64)
	}
	samples[5].adj[17] = !samples[5].adj[17]
	if wrong, _ := checkSamples(g, st, samples); wrong != 1 {
		t.Fatalf("one flipped answer: %d wrong frames, want 1", wrong)
	}
	samples[2].adj = samples[2].adj[:10]
	if wrong, _ := checkSamples(g, st, samples); wrong != 2 {
		t.Fatalf("flipped and truncated frames: %d wrong frames, want 2", wrong)
	}
}

func TestCheckCatchesCorruptedDistance(t *testing.T) {
	g, err := genGraph(3000, 12)
	if err != nil {
		t.Fatal(err)
	}
	w := workload{name: "t", n: g.N(), scheme: "dist-pll", batch: 256, zipf: true}
	st := newStream(g, w, 12)
	var samples []sample
	for k := int64(0); k < 4; k++ {
		s := sample{k: k}
		for _, p := range st.frame(k) {
			s.dist = append(s.dist, g.BFS(p[0])[p[1]])
		}
		samples = append(samples, s)
	}
	if wrong, checked := checkSamples(g, st, samples); wrong != 0 || checked != 4*distCheckPairs {
		t.Fatalf("true answers: %d wrong frames of %d pairs checked, want 0 of %d", wrong, checked, 4*distCheckPairs)
	}
	samples[3].dist[distCheckPairs-1]++
	if wrong, _ := checkSamples(g, st, samples); wrong != 1 {
		t.Fatalf("one distance off by one: %d wrong frames, want 1", wrong)
	}
}

func TestMismatchIndices(t *testing.T) {
	g, err := genGraph(500, 13)
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{0, 1}, {2, 3}, {0, 0}, {4, 9}}
	adj := make([]bool, len(pairs))
	dist := make([]int, len(pairs))
	for i, p := range pairs {
		adj[i] = g.HasEdge(p[0], p[1])
		dist[i] = g.BFS(p[0])[p[1]]
	}
	adj[3] = !adj[3]
	dist[1] = 99
	if bad := adjMismatches(g, pairs, adj); len(bad) != 1 || bad[0] != 3 {
		t.Errorf("adjMismatches = %v, want [3]", bad)
	}
	if bad := distMismatches(g, pairs, dist); len(bad) != 1 || bad[0] != 1 {
		t.Errorf("distMismatches = %v, want [1]", bad)
	}
}
