package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/adjserve"
)

// runPerLayer is the traced run. It replays the set-up path in-process layer
// by layer, serves the stores it wrote, and alternates untraced and traced
// quarters of the timed window, so trace overhead is measured on the same
// fleet. Daemon counters are scraped once, after the window, and the engine
// is timed in-process on the workload's own stream last, with the fleet
// stopped.
func (b *bench) runPerLayer() (*result, error) {
	g, edges, st, err := b.prepare()
	if err != nil {
		return nil, err
	}
	sp, err := timeSetupPath(b.w, edges, b.dir)
	if err != nil {
		return nil, err
	}
	fl, err := deploy(b.w, sp.stores, true)
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	hsMs, err := handshakeMs(fl.serverAddrs())
	if err != nil {
		return nil, err
	}
	clients, err := dialClients(fl.entry(), b.w.batch)
	if err != nil {
		return nil, err
	}
	defer closeClients(clients)

	l := &loader{w: b.w, st: st, clients: clients}
	all := []*window{l.run(warmup, false)}
	var (
		untraced, traced  []*window
		cpu, wall         time.Duration
		bytesOut, bytesIn int64
		untracedPairs     int64
	)
	for i := 0; i < 2; i++ {
		out0, in0 := clientBytes(clients)
		cpu0, t0 := cpuTime(), time.Now()
		u := l.run(b.dur/4, false)
		wall += time.Since(t0)
		cpu += cpuTime() - cpu0
		out1, in1 := clientBytes(clients)
		bytesOut += out1 - out0
		bytesIn += in1 - in0
		untracedPairs += u.frames * int64(b.w.batch)
		untraced = append(untraced, u)
		traced = append(traced, l.run(b.dur/4, true))
	}
	all = append(all, untraced...)
	all = append(all, traced...)
	if n := framesOf(untraced); n < minFrames {
		return nil, fmt.Errorf("only %d untraced frames, need %d", n, minFrames)
	}

	scrapes := make(map[string]map[string]float64)
	for _, p := range fl.procs() {
		if scrapes[p.role], err = scrape(p); err != nil {
			return nil, err
		}
	}
	closeClients(clients)
	fl.stop()

	probeNs, fatFrac, err := sp.probePass(st)
	if err != nil {
		return nil, err
	}
	res := &result{}
	var samples []sample
	for _, w := range all {
		res.Attempted += w.frames
		res.Failed += w.failed
		samples = append(samples, w.samples...)
	}
	res.Failed += int64(checkAnswers(g, st, samples))
	res.Correct = res.Failed == 0

	ts := traced[0].trace
	ts.merge(traced[1].trace)
	fanout, skew := routerStats(scrapes["router"], b.w.servers())
	values := map[string]float64{
		"graph.read_s":                        sp.readS,
		"core.encode_s":                       sp.encodeS,
		"core.verify_s":                       sp.verifyS,
		"labelstore.write_s":                  sp.writeS,
		"labelstore.open_ms":                  sp.openMs,
		"core.engine_build_ms":                sp.engineMs,
		"adjserve.router_handshake_ms":        hsMs,
		"core.probe_ns_per_pair":              probeNs,
		"core.fat_branch_frac":                fatFrac,
		"adjserve.client.req_bytes_per_pair":  float64(bytesOut) / float64(untracedPairs),
		"adjserve.client.resp_bytes_per_pair": float64(bytesIn) / float64(untracedPairs),
		"adjserve.router.fanout":              fanout,
		"adjserve.router.shard_skew":          skew,
		"obs.trace_overhead_frac":             1 - pairsPerSec(traced...)/pairsPerSec(untraced...),
		"trace.coverage_frac":                 ts.coverage(),
		"bench.loadgen_cpu_frac":              cpu.Seconds() / (wall.Seconds() * float64(runtime.NumCPU())),
	}
	for _, r := range traceRows {
		values[r.name()+".p50_us"] = ts.p50Us(r.stage, hopSlot(r.hop))
		values[r.name()+".share"] = ts.share(r.stage, hopSlot(r.hop))
	}
	for _, role := range daemonRoles {
		s := scrapes[role] // nil for a role the workload does not deploy
		values["runtime.gc_cycles."+role] = s["go_gc_cycles_total"]
		values["runtime.gc_pause_ms."+role] = s["go_gc_pause_ns_total"] / 1e6
	}
	return res, res.fill(perLayer, values)
}

// routerStats derives from a router's /metrics the upstream batches per
// frame and the largest shard's pairs over the mean. Both are 0 without a
// router.
func routerStats(s map[string]float64, upstreams int) (fanout, skew float64) {
	frames := s["adjserve_router_frames_total"]
	if frames == 0 {
		return 0, 0
	}
	var batches, total, most float64
	for i := 0; i < upstreams; i++ {
		batches += s[fmt.Sprintf(`adjserve_router_upstream_batches_total{shard="%d"}`, i)]
		p := s[fmt.Sprintf(`adjserve_router_upstream_pairs_total{shard="%d"}`, i)]
		total += p
		most = max(most, p)
	}
	if total > 0 {
		skew = most / (total / float64(upstreams))
	}
	return batches / frames, skew
}

// clientBytes sums the request and response wire bytes of the clients.
func clientBytes(clients []*adjserve.Client) (out, in int64) {
	for _, c := range clients {
		m := c.Metrics()
		out += m.BytesOut.Load()
		in += m.BytesIn.Load()
	}
	return out, in
}

// cpuTime is the CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
