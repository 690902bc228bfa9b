package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/adjserve"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/labelstore"
	"repro/internal/schemes/distance"
)

// layerReps is how many times the fast set-up layers (store open, engine
// build, router handshake) are timed; the median is reported.
const layerReps = 5

// setupPath is the set-up path replayed in-process, layer by layer, with the
// same inputs and defaults pllabel and plserve use.
type setupPath struct {
	readS, encodeS, verifyS, writeS float64
	openMs, engineMs                float64
	stores                          []string // written store files
	// One of these answers the in-process probe pass over the whole graph.
	adj  *core.QueryEngine
	dist *core.DistEngine
}

// timeSetupPath reads the edge list, encodes, verifies and writes w's stores
// under dir, then times opening the first store and building its engine.
func timeSetupPath(w workload, edges, dir string) (*setupPath, error) {
	sp := &setupPath{}
	f, err := os.Open(edges)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	g, err := graph.ReadEdgeList(f)
	sp.readS = time.Since(t).Seconds()
	f.Close()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(dir, "labels.store")
	sp.stores = storePaths(w, out)
	if w.dist() {
		err = sp.distPath(g, out)
	} else {
		err = sp.adjPath(w, g)
	}
	if err != nil {
		return nil, err
	}

	opens := make([]float64, layerReps)
	for i := range opens {
		t := time.Now()
		mf, err := labelstore.Open(sp.stores[0])
		opens[i] = float64(time.Since(t)) / 1e6
		if err != nil {
			return nil, err
		}
		mf.Close()
	}
	sp.openMs = median(opens)

	mf, err := labelstore.Open(sp.stores[0])
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	builds := make([]float64, layerReps)
	for i := range builds {
		t := time.Now()
		if err := buildEngine(mf.File); err != nil {
			return nil, err
		}
		builds[i] = float64(time.Since(t)) / 1e6
	}
	sp.engineMs = median(builds)
	return sp, nil
}

// buildEngine builds the serving engine from an opened store as plserve does.
func buildEngine(store *labelstore.File) error {
	if da, ok := store.DistArena(); ok {
		_, err := core.NewDistEngine(da)
		return err
	}
	slab, bitLens, order, ok := store.ArenaLayout()
	if !ok {
		return fmt.Errorf("store has no arena")
	}
	eng, err := core.NewQueryEngineFromPermutedArena(slab, bitLens, order)
	if err != nil {
		return err
	}
	if m, ok := store.Shard(); ok {
		return eng.SetShard(m)
	}
	return nil
}

// adjPath encodes with the Theorem 4 scheme (one worker, pllabel's default),
// verifies with Labeling.Verify, and writes the whole or sharded stores.
func (sp *setupPath) adjPath(w workload, g *graph.Graph) error {
	scheme := core.NewPowerLawScheme(graphAlpha)
	scheme.SetLayout(core.LayoutDegree)
	t := time.Now()
	lab, err := scheme.EncodeParallel(g, 1)
	sp.encodeS = time.Since(t).Seconds()
	if err != nil {
		return err
	}
	t = time.Now()
	if err := lab.Verify(g); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	sp.verifyS = time.Since(t).Seconds()

	t = time.Now()
	slab, order, ok := lab.ArenaLayout()
	if !ok {
		return fmt.Errorf("labeling is not arena-backed")
	}
	n := g.N()
	bitLens := make([]int, n)
	for v := range bitLens {
		l, err := lab.Label(v)
		if err != nil {
			return err
		}
		bitLens[v] = l.Len()
	}
	params := map[string]string{"n": strconv.Itoa(n)}
	if w.shards == 0 {
		store, err := labelstore.NewPermutedArenaFile(lab.Scheme(), params, slab, bitLens, order)
		if err != nil {
			return err
		}
		err = writeStore(sp.stores[0], store)
	} else {
		err = writeShards(sp.stores, lab.Scheme(), params, slab, bitLens, order)
	}
	if err != nil {
		return err
	}
	sp.writeS = time.Since(t).Seconds()
	sp.adj, err = core.NewQueryEngineFromPermutedArena(slab, bitLens, order)
	return err
}

func writeShards(paths []string, scheme string, params map[string]string, slab []byte, bitLens []int, order []int32) error {
	arenas, err := core.ShardLabelArenas(slab, bitLens, order, len(paths), core.ShardRange)
	if err != nil {
		return err
	}
	for i, a := range arenas {
		m := core.ShardMap{Count: len(paths), Index: i, Fn: core.ShardRange}
		store, err := labelstore.NewShardArenaFile(scheme, params, a.Slab, a.BitLens, order, m)
		if err != nil {
			return err
		}
		if err := writeStore(paths[i], store); err != nil {
			return err
		}
	}
	return nil
}

// distPath encodes with PLL (one worker), runs pllabel's BFS spot check and
// writes the store.
func (sp *setupPath) distPath(g *graph.Graph, out string) error {
	scheme := distance.PLLScheme{}
	t := time.Now()
	arena, err := scheme.EncodeArena(g, 1, core.LayoutDegree)
	sp.encodeS = time.Since(t).Seconds()
	if err != nil {
		return err
	}
	t = time.Now()
	eng, err := core.NewDistEngine(arena)
	if err != nil {
		return err
	}
	if err := spotCheckDist(g, eng); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	sp.verifyS = time.Since(t).Seconds()
	sp.dist = eng

	t = time.Now()
	store, err := labelstore.NewDistArenaFile(scheme.Name(), map[string]string{"n": strconv.Itoa(g.N())}, arena)
	if err != nil {
		return err
	}
	if err := writeStore(out, store); err != nil {
		return err
	}
	sp.writeS = time.Since(t).Seconds()
	return nil
}

// spotCheckDist is pllabel's distance verification: BFS from 16 spread
// sources against 512 spread targets each.
func spotCheckDist(g *graph.Graph, eng *core.DistEngine) error {
	n := g.N()
	srcStep, dstStep := max(1, n/16), max(1, n/512)
	for src := 0; src < n; src += srcStep {
		d := g.BFS(src)
		for v := 0; v < n; v += dstStep {
			got, err := eng.Dist(src, v)
			if err != nil {
				return err
			}
			if got != d[v] {
				return fmt.Errorf("dist(%d,%d) = %d, BFS says %d", src, v, got, d[v])
			}
		}
	}
	return nil
}

func writeStore(path string, store *labelstore.File) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := labelstore.Write(f, store); err != nil {
		return err
	}
	return f.Close()
}

// probePass answers the whole pool in-process, frame by frame, with engine
// metrics attached. It returns the engine time per pair and the share of
// queries resolved by the fat branch.
func (sp *setupPath) probePass(st *stream) (nsPerPair, fatFrac float64, err error) {
	m := new(core.EngineMetrics)
	var (
		boolOut []bool
		distOut []int
	)
	if sp.dist != nil {
		sp.dist.AttachMetrics(m)
	} else {
		sp.adj.AttachMetrics(m)
	}
	t := time.Now()
	for k := 0; k < st.frames(); k++ {
		pairs := st.frame(int64(k))
		if sp.dist != nil {
			distOut, err = sp.dist.DistMany(pairs, distOut[:0])
		} else {
			boolOut, err = sp.adj.AdjacentMany(pairs, boolOut[:0])
		}
		if err != nil {
			return 0, 0, err
		}
	}
	nsPerPair = float64(time.Since(t)) / float64(len(st.pool))
	if q := m.Queries.Load(); q > 0 {
		fatFrac = float64(m.FatBranch.Load()) / float64(q)
	}
	return nsPerPair, fatFrac, nil
}

// handshakeMs times adjserve.NewRouter against the fleet's servers, the
// shard handshake plroute runs at start.
func handshakeMs(addrs []string) (float64, error) {
	times := make([]float64, layerReps)
	for i := range times {
		t := time.Now()
		r, err := adjserve.NewRouter(addrs, 0)
		times[i] = float64(time.Since(t)) / 1e6
		if err != nil {
			return 0, err
		}
		r.Close()
	}
	return median(times), nil
}
