package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adjserve"
	"repro/internal/obs"
)

// Answer sampling: every sampleEvery-th frame of a window keeps a copy of
// its answers, up to maxSamples per connection, for checking after the
// window against ground truth.
const (
	sampleEvery = 61
	maxSamples  = 64
)

// sliceDur is the length of the slices a timed window is cut into. Each
// timing is the median over the slices of a run, so a burst of interference
// in one slice does not set the result.
const sliceDur = time.Second

// loader drives one closed loop per client: each connection has one frame
// in flight, and its next frame is sent when the previous answer arrives.
// Frames are taken from the stream in order across all connections.
type loader struct {
	w       workload
	st      *stream
	clients []*adjserve.Client
	next    atomic.Int64 // index of the next frame in the stream
}

// sample is one frame's answers kept for checking.
type sample struct {
	k    int64
	adj  []bool
	dist []int
}

// window is the outcome of one timed run of the loop.
type window struct {
	frames     int64     // frames attempted
	failed     int64     // error, shed or transport failures
	sliceSec   float64   // length of each slice
	sliceLat   [][]int64 // per slice, each completed frame's latency (failures as +Inf)
	slicePairs []int64   // per slice, pairs answered
	samples    []sample
	trace      *traceStats // nil when untraced
}

// run drives the loop for d. traced sends every frame with trace context.
func (l *loader) run(d time.Duration, traced bool) *window {
	newWindow := func() *window {
		slices := max(1, int(d/sliceDur))
		w := &window{
			sliceSec:   d.Seconds() / float64(slices),
			sliceLat:   make([][]int64, slices),
			slicePairs: make([]int64, slices),
		}
		if traced {
			w.trace = &traceStats{}
		}
		return w
	}
	win := newWindow()
	parts := make([]*window, len(l.clients))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range l.clients {
		parts[i] = newWindow()
		wg.Add(1)
		go func(c *adjserve.Client, part *window) {
			defer wg.Done()
			l.worker(c, part, start, deadline)
		}(c, parts[i])
	}
	wg.Wait()
	for _, p := range parts {
		win.frames += p.frames
		win.failed += p.failed
		for i := range p.slicePairs {
			win.sliceLat[i] = append(win.sliceLat[i], p.sliceLat[i]...)
			win.slicePairs[i] += p.slicePairs[i]
		}
		win.samples = append(win.samples, p.samples...)
		if traced {
			win.trace.merge(p.trace)
		}
	}
	return win
}

// worker is one connection's closed loop.
func (l *loader) worker(c *adjserve.Client, part *window, start, deadline time.Time) {
	sliceNs := int64(part.sliceSec * 1e9)
	var (
		boolOut []bool
		distOut []int
		tally   obs.SpanTally
	)
	for time.Now().Before(deadline) {
		k := l.next.Add(1) - 1
		pairs := l.st.frame(k)
		traced := part.trace != nil
		t0 := time.Now()
		var err error
		switch {
		case l.w.dist() && traced:
			tally.Reset()
			distOut, err = c.DistManyTrace(pairs, distOut[:0], &tally)
		case l.w.dist():
			distOut, err = c.DistMany(pairs, distOut[:0])
		case traced:
			tally.Reset()
			boolOut, err = c.AdjacentManyTrace(pairs, boolOut[:0], &tally)
		default:
			boolOut, err = c.AdjacentMany(pairs, boolOut[:0])
		}
		end := time.Now()
		lat := int64(end.Sub(t0))
		part.frames++
		if err != nil {
			part.failed++
			lat = math.MaxInt64
		}
		// Frames answered after the deadline count as attempted but fall in
		// no slice.
		if s := int(int64(end.Sub(start)) / sliceNs); s < len(part.slicePairs) {
			part.sliceLat[s] = append(part.sliceLat[s], lat)
			if err == nil {
				part.slicePairs[s] += int64(len(pairs))
			}
		}
		if err != nil {
			continue
		}
		if traced {
			part.trace.add(&tally, lat)
		}
		if k%sampleEvery == 0 && len(part.samples) < maxSamples {
			s := sample{k: k}
			if l.w.dist() {
				s.dist = append([]int(nil), distOut...)
			} else {
				s.adj = append([]bool(nil), boolOut...)
			}
			part.samples = append(part.samples, s)
		}
	}
}

func framesOf(ws []*window) (n int64) {
	for _, w := range ws {
		n += w.frames
	}
	return n
}

// pairsPerSec is the median over the windows' slices of answered pairs per
// second.
func pairsPerSec(ws ...*window) float64 {
	var rates []float64
	for _, w := range ws {
		for _, p := range w.slicePairs {
			rates = append(rates, float64(p)/w.sliceSec)
		}
	}
	return median(rates)
}

// latencyUs is the median over the windows' slices of each slice's
// q-quantile of frame latency, in microseconds.
func latencyUs(q float64, ws ...*window) float64 {
	var qs []float64
	for _, w := range ws {
		for _, lat := range w.sliceLat {
			qs = append(qs, float64(quantileInt(lat, q))/1e3)
		}
	}
	return median(qs)
}

// Trace hops are folded into slots: local, peer, then shard indices.
const (
	slotLocal  = 0
	slotPeer   = 1
	maxShards  = 8
	traceSlots = 2 + maxShards
	numStages  = obs.StageFlush + 1
)

func hopSlot(hop uint8) int {
	switch hop {
	case obs.HopSelf:
		return slotLocal
	case obs.HopPeer:
		return slotPeer
	}
	if int(hop) < maxShards {
		return 2 + int(hop)
	}
	return -1
}

// traceStats aggregates traced frames: per (stage, hop) the per-frame
// durations and their total, and the frames' wall time against the sum of
// the top-level (local and peer) stages, which should cover it.
type traceStats struct {
	frames  int64
	e2eNs   int64
	topNs   int64
	total   [numStages][traceSlots]int64
	samples [numStages][traceSlots][]int64
}

// add folds one traced frame in; wallNs is its latency as the load generator saw it.
// Entries repeating a (stage, hop) within the frame are summed first.
func (ts *traceStats) add(t *obs.SpanTally, wallNs int64) {
	ts.frames++
	ts.e2eNs += wallNs
	var (
		frame [numStages][traceSlots]int64
		seen  [numStages][traceSlots]bool
	)
	for _, st := range t.Stages() {
		slot := hopSlot(st.Hop)
		if slot < 0 || st.Stage >= numStages {
			continue
		}
		frame[st.Stage][slot] += st.Ns
		seen[st.Stage][slot] = true
		if slot <= slotPeer {
			ts.topNs += st.Ns
		}
	}
	for s := range frame {
		for h, ns := range frame[s] {
			if seen[s][h] {
				ts.samples[s][h] = append(ts.samples[s][h], ns)
				ts.total[s][h] += ns
			}
		}
	}
}

func (ts *traceStats) merge(o *traceStats) {
	ts.frames += o.frames
	ts.e2eNs += o.e2eNs
	ts.topNs += o.topNs
	for s := range ts.total {
		for h := range ts.total[s] {
			ts.total[s][h] += o.total[s][h]
			ts.samples[s][h] = append(ts.samples[s][h], o.samples[s][h]...)
		}
	}
}

// p50Us is the median per-frame duration of (stage, slot) over the frames
// that recorded it, 0 if none did.
func (ts *traceStats) p50Us(stage uint8, slot int) float64 {
	return float64(quantileInt(ts.samples[stage][slot], 0.5)) / 1e3
}

// share is the (stage, slot) total over the traced frames' wall time.
func (ts *traceStats) share(stage uint8, slot int) float64 {
	if ts.e2eNs == 0 {
		return 0
	}
	return float64(ts.total[stage][slot]) / float64(ts.e2eNs)
}

func (ts *traceStats) coverage() float64 {
	if ts.e2eNs == 0 {
		return 0
	}
	return float64(ts.topNs) / float64(ts.e2eNs)
}
