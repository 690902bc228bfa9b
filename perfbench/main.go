// Command perfbench is the repository's benchmark. It deploys the real
// programs (pllabel, plserve, plroute) built from this tree on a graph
// generated from a seed, drives them in a closed loop from one process with
// adjserve clients, checks a sample of the answers against ground truth, and
// prints every metric by name with its unit; the last line of its output is
// one JSON object with the result.
//
//	bash perfbench/run.sh --workload adj-bulk --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh compare old.jsonl new.jsonl
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is a
// separate run that reports the per-layer metrics. See PREDICTIONS.md for
// what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/adjserve"
	"repro/internal/graph"
)

// Where run.sh puts the programs it builds, and where runs keep their edge
// lists and stores; both are relative to the repository root.
const (
	binDir  = ".bench_build/bin"
	workDir = ".bench_build/work"
)

const (
	// setupReps is how many times an end-to-end run sets the fleet up; the
	// median is reported.
	setupReps = 3
	// warmup runs the loop before timing, so caches fill and lazy set-up
	// finishes.
	warmup = time.Second
	// minFrames is the fewest timed frames a run accepts: p99 then rests on
	// at least ten frames beyond it.
	minFrames = 1000
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:]))
	}
	os.Exit(runBench(os.Args[1:]))
}

func runBench(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: adj-bulk | adj-routed | dist-replicas")
		seed    = fs.Int64("seed", 1, "seed for the graph and the query stream")
		seconds = fs.Int("seconds", 15, "length of the timed window")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
		out     = fs.String("out", "", "append the run's record (provenance and result) to this JSON-lines file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of adj-bulk, adj-routed, dist-replicas), --seconds >= 1 and --trace 0|1\n")
		return 2
	}

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, w.name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killChildren()
		os.RemoveAll(dir)
		os.Exit(1)
	}()

	b := &bench{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, dir: dir}
	var res *result
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		res, err = b.runPerLayer()
	} else {
		res, err = b.runEndToEnd()
	}
	killChildren()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	prov := collectProvenance(*seed)
	for _, d := range defs {
		fmt.Printf("%s %-42s %14.6g %s\n", w.name, d.name, res.Metrics[d.name].Value, d.unit)
	}
	provLine, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", provLine)
	if *out != "" {
		rec := record{Provenance: prov, Workload: w.name, Seconds: *seconds, Trace: *trace, Result: *res}
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d frames failed or answered wrongly\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	w    workload
	seed int64
	dur  time.Duration
	dir  string
}

// prepare generates the graph, writes its edge list and draws the query
// stream. None of it is timed.
func (b *bench) prepare() (*graph.Graph, string, *stream, error) {
	g, err := genGraph(b.w.n, b.seed)
	if err != nil {
		return nil, "", nil, err
	}
	edges := filepath.Join(b.dir, "graph.edges")
	if err := writeEdges(g, edges); err != nil {
		return nil, "", nil, err
	}
	return g, edges, newStream(g, b.w, b.seed), nil
}

func dialClients(addr string, batch int) ([]*adjserve.Client, error) {
	clients := make([]*adjserve.Client, 2)
	for i := range clients {
		c, err := adjserve.Dial(addr)
		if err != nil {
			closeClients(clients)
			return nil, err
		}
		c.MaxBatch = batch
		clients[i] = c
	}
	return clients, nil
}

func closeClients(clients []*adjserve.Client) {
	for _, c := range clients {
		if c != nil {
			c.Close()
		}
	}
}

// firstFrame sends one frame of the stream and reports whether it was
// answered.
func firstFrame(c *adjserve.Client, w workload, st *stream) error {
	var err error
	if w.dist() {
		_, err = c.DistMany(st.frame(0), nil)
	} else {
		_, err = c.AdjacentMany(st.frame(0), nil)
	}
	return err
}

// runEndToEnd deploys the fleet setupReps times. Each deployment is timed from
// the edge list on disk to the first answered frame, then warmed up and
// measured for an equal share of the timed window with tracing off. Set-up
// time is the median over the deployments; the serving timings are medians
// over the one-second slices of all three windows.
func (b *bench) runEndToEnd() (*result, error) {
	g, edges, st, err := b.prepare()
	if err != nil {
		return nil, err
	}
	var (
		fl      *fleet
		clients []*adjserve.Client
		stores  []string
		maxBits int
		samples []sample
		res     = &result{}

		setups, rsses []float64
		timed         []*window
	)
	defer func() {
		closeClients(clients)
		if fl != nil {
			fl.stop()
		}
	}()
	l := &loader{w: b.w, st: st}
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if stores, maxBits, err = label(b.w, edges, b.dir); err != nil {
			return nil, err
		}
		if fl, err = deploy(b.w, stores, false); err != nil {
			return nil, err
		}
		if clients, err = dialClients(fl.entry(), b.w.batch); err != nil {
			return nil, err
		}
		res.Attempted++
		if err := firstFrame(clients[0], b.w, st); err != nil {
			return nil, fmt.Errorf("first frame: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())

		l.clients = clients
		warm := l.run(warmup, false)
		win := l.run(b.dur/setupReps, false)
		timed = append(timed, win)
		for _, w := range []*window{warm, win} {
			res.Attempted += w.frames
			res.Failed += w.failed
			samples = append(samples, w.samples...)
		}
		rss, err := fl.peakRSSMiB()
		if err != nil {
			return nil, err
		}
		rsses = append(rsses, rss)
		closeClients(clients)
		clients = nil
		fl.stop()
		fl = nil
	}
	if n := framesOf(timed); n < minFrames {
		return nil, fmt.Errorf("only %d timed frames, need %d", n, minFrames)
	}
	storeBytes, err := filesSize(stores)
	if err != nil {
		return nil, err
	}
	res.Failed += int64(checkAnswers(g, st, samples))
	res.Correct = res.Failed == 0
	err = res.fill(endToEnd, map[string]float64{
		"setup_s":                median(setups),
		"pairs_per_s":            pairsPerSec(timed...),
		"frame_p50_us":           latencyUs(0.50, timed...),
		"frame_p99_us":           latencyUs(0.99, timed...),
		"ok_frac":                1 - float64(res.Failed)/float64(res.Attempted),
		"serve_rss_mib":          median(rsses),
		"store_bytes_per_vertex": float64(storeBytes) / float64(b.w.n),
		"label_bits_max":         float64(maxBits),
	})
	return res, err
}

// provenance stamps a result with what produced it.
type provenance struct {
	GitRev     string `json:"git_rev"`
	SrcSHA256  string `json:"src_sha256"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
}

// record is one run as appended by --out and read by compare.
type record struct {
	Provenance provenance `json:"provenance"`
	Workload   string     `json:"workload"`
	Seconds    int        `json:"seconds"`
	Trace      int        `json:"trace"`
	Result     result     `json:"result"`
}

func collectProvenance(seed int64) provenance {
	return provenance{
		GitRev:     gitRev(),
		SrcSHA256:  sourceDigest("."),
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Seed:       seed,
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
