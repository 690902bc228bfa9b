package main

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// distCheckPairs bounds how many pairs of each sampled distance frame are
// checked; each distinct source costs one BFS.
const distCheckPairs = 64

// adjMismatches returns the indices of the pairs whose adjacency answer
// differs from the CSR graph.
func adjMismatches(g *graph.Graph, pairs [][2]int, got []bool) []int {
	var bad []int
	for i, p := range pairs {
		if got[i] != g.HasEdge(p[0], p[1]) {
			bad = append(bad, i)
		}
	}
	return bad
}

// distMismatches returns the indices of the pairs whose distance answer
// differs from BFS (graph.Unreachable for unreachable pairs), running one
// BFS per distinct source.
func distMismatches(g *graph.Graph, pairs [][2]int, got []int) []int {
	idx := make([]int, len(pairs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return pairs[idx[a]][0] < pairs[idx[b]][0] })
	var (
		bad  []int
		dist []int
	)
	src := -1
	for _, i := range idx {
		if u := pairs[i][0]; u != src {
			src, dist = u, g.BFS(u)
		}
		if got[i] != dist[pairs[i][1]] {
			bad = append(bad, i)
		}
	}
	sort.Ints(bad)
	return bad
}

// checkSamples checks the answers kept from the timed windows. It returns
// how many sampled frames held a wrong or missing answer, and how many pairs
// were checked.
func checkSamples(g *graph.Graph, st *stream, samples []sample) (wrongFrames, checked int) {
	var (
		pairs [][2]int
		got   []int
		owner []int // sample index of each distance pair
	)
	for si, s := range samples {
		fp := st.frame(s.k)
		if s.adj != nil {
			checked += len(fp)
			if len(s.adj) != len(fp) || len(adjMismatches(g, fp, s.adj)) > 0 {
				wrongFrames++
			}
			continue
		}
		if len(s.dist) != len(fp) {
			wrongFrames++
			continue
		}
		n := min(len(fp), distCheckPairs)
		pairs = append(pairs, fp[:n]...)
		got = append(got, s.dist[:n]...)
		for i := 0; i < n; i++ {
			owner = append(owner, si)
		}
	}
	checked += len(pairs)
	bad := make(map[int]bool)
	for _, i := range distMismatches(g, pairs, got) {
		bad[owner[i]] = true
	}
	return wrongFrames + len(bad), checked
}

// checkAnswers checks the samples, reports the count on standard output and
// returns the number of sampled frames with a wrong answer.
func checkAnswers(g *graph.Graph, st *stream, samples []sample) int {
	wrong, checked := checkSamples(g, st, samples)
	fmt.Printf("answers checked: %d pairs in %d sampled frames, %d frames wrong\n", checked, len(samples), wrong)
	return wrong
}
