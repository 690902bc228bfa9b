package main

import (
	"fmt"

	"repro/internal/obs"
)

// metricDef names a reported metric and its unit. The lists below are the
// benchmark's contract with BENCHMARK.json, which must list the same names.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the fleet sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pairs_per_s", "1/s"},
	{"frame_p50_us", "us"},
	{"frame_p99_us", "us"},
	{"ok_frac", "frac"},
	{"serve_rss_mib", "MiB"},
	{"store_bytes_per_vertex", "B"},
	{"label_bits_max", "bit"},
}

// traceRow is one (stage, hop) of the per-frame trace the traced run reports.
type traceRow struct{ stage, hop uint8 }

// traceRows: the client's own stages, the peer's (server or router), and
// each shard's as merged by the router.
var traceRows = func() []traceRow {
	rows := []traceRow{
		{obs.StageEncode, obs.HopSelf}, {obs.StageFlush, obs.HopSelf}, {obs.StageNet, obs.HopSelf},
		{obs.StageRead, obs.HopPeer}, {obs.StageQueue, obs.HopPeer}, {obs.StageProbe, obs.HopPeer},
		{obs.StageScatter, obs.HopPeer}, {obs.StageUpstream, obs.HopPeer}, {obs.StageGather, obs.HopPeer},
	}
	for shard := uint8(0); shard < 3; shard++ {
		rows = append(rows, traceRow{obs.StageProbe, shard}, traceRow{obs.StageQueue, shard}, traceRow{obs.StageNet, shard})
	}
	return rows
}()

func (r traceRow) name() string {
	return fmt.Sprintf("trace.%s.%s", obs.StageName(r.stage), obs.HopName(r.hop))
}

// daemonRoles are the fleet roles whose runtime counters are reported; a
// workload without a role reports 0 for it.
var daemonRoles = []string{"serve0", "serve1", "serve2", "router"}

// perLayer is what the traced run reports, layer by layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"graph.read_s", "s"},
		{"core.encode_s", "s"},
		{"core.verify_s", "s"},
		{"labelstore.write_s", "s"},
		{"labelstore.open_ms", "ms"},
		{"core.engine_build_ms", "ms"},
		{"adjserve.router_handshake_ms", "ms"},
		{"core.probe_ns_per_pair", "ns"},
		{"core.fat_branch_frac", "frac"},
		{"adjserve.client.req_bytes_per_pair", "B"},
		{"adjserve.client.resp_bytes_per_pair", "B"},
		{"adjserve.router.fanout", "count"},
		{"adjserve.router.shard_skew", "ratio"},
		{"obs.trace_overhead_frac", "frac"},
		{"trace.coverage_frac", "frac"},
		{"bench.loadgen_cpu_frac", "frac"},
	}
	for _, r := range traceRows {
		defs = append(defs, metricDef{r.name() + ".p50_us", "us"}, metricDef{r.name() + ".share", "frac"})
	}
	for _, role := range daemonRoles {
		defs = append(defs, metricDef{"runtime.gc_cycles." + role, "count"}, metricDef{"runtime.gc_pause_ms." + role, "ms"})
	}
	return defs
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill copies values into r.Metrics for every def, failing on any def that
// was not measured so a missing metric cannot go unnoticed.
func (r *result) fill(defs []metricDef, values map[string]float64) error {
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return nil
}
