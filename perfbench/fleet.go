package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child process the benchmark started.
type proc struct {
	role   string // "pllabel", "serve0".., "router"
	cmd    *exec.Cmd
	out    bytes.Buffer // stdout, for one-shot tools
	addr   string       // query listener, for daemons
	admin  string       // admin listener, when started with -admin-addr
	exited chan struct{}
	err    error // exit status, valid once exited is closed
}

// children tracks every live child so an interrupted run can stop them.
var children struct {
	sync.Mutex
	m map[*proc]struct{}
}

// spawn starts bin with args. Daemons (daemon = true) are read line by line
// until they log their listening address; one-shot tools have their stdout
// collected into p.out. The child is killed if this process dies first.
func spawn(bin, role string, args []string, daemon bool) (*proc, error) {
	p := &proc{role: role, cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	p.cmd.Stderr = os.Stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	children.Lock()
	if children.m == nil {
		children.m = make(map[*proc]struct{})
	}
	children.m[p] = struct{}{}
	children.Unlock()

	listening := make(chan struct{})
	go func() {
		defer close(p.exited)
		if daemon {
			p.readLog(stdout, listening)
		} else {
			_, _ = io.Copy(&p.out, stdout)
		}
		p.err = p.cmd.Wait()
		children.Lock()
		delete(children.m, p)
		children.Unlock()
	}()
	if !daemon {
		return p, nil
	}
	select {
	case <-listening:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening: %v", role, p.err)
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within 60s", role)
	}
}

// readLog scans a daemon's slog output for its admin and query addresses,
// signalling listening once the query listener is up, then drains the rest.
func (p *proc) readLog(r io.Reader, listening chan<- struct{}) {
	sc := bufio.NewScanner(r)
	announced := false
	for sc.Scan() {
		line := sc.Text()
		if announced {
			continue
		}
		switch {
		case strings.Contains(line, " msg=admin "):
			p.admin = logField(line, "addr")
		case strings.Contains(line, " msg=listening "):
			p.addr = logField(line, "addr")
			announced = true
			close(listening)
		}
	}
	_, _ = io.Copy(io.Discard, r)
}

// logField extracts key=value from a slog text line.
func logField(line, key string) string {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v
		}
	}
	return ""
}

// wait blocks until a one-shot tool exits and returns its stdout.
func (p *proc) wait() (string, error) {
	<-p.exited
	if p.err != nil {
		return "", fmt.Errorf("%s: %w", p.role, p.err)
	}
	return p.out.String(), nil
}

// stop asks the process to drain (SIGTERM), kills it after 10s, and waits
// until it has exited.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// killChildren kills every live child and waits for each to exit.
func killChildren() {
	children.Lock()
	live := make([]*proc, 0, len(children.m))
	for p := range children.m {
		live = append(live, p)
	}
	children.Unlock()
	for _, p := range live {
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// binPath locates a program under test.
func binPath(name string) string { return filepath.Join(binDir, name) }

var labelMaxRE = regexp.MustCompile(`labels: max=(\d+) bits`)

// label runs pllabel with its default verification on the edge list,
// writing the workload's stores under dir. It returns the store paths and
// the largest label in bits.
func label(w workload, edges, dir string) (stores []string, maxBits int, err error) {
	out := filepath.Join(dir, "labels.store")
	args := []string{"-in", edges, "-scheme", w.scheme, "-layout", "degree", "-o", out}
	if w.shards > 0 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	p, err := spawn(binPath("pllabel"), "pllabel", args, false)
	if err != nil {
		return nil, 0, err
	}
	text, err := p.wait()
	if err != nil {
		return nil, 0, err
	}
	m := labelMaxRE.FindStringSubmatch(text)
	if m == nil {
		return nil, 0, fmt.Errorf("pllabel printed no label sizes")
	}
	maxBits, _ = strconv.Atoi(m[1])
	return storePaths(w, out), maxBits, nil
}

// storePaths lists the store files pllabel writes for w at out.
func storePaths(w workload, out string) []string {
	if w.shards == 0 {
		return []string{out}
	}
	paths := make([]string, w.shards)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s.shard%d", out, i)
	}
	return paths
}

// fleet is a deployed serving fleet: plserve per shard or replica, and
// plroute in front when the workload routes.
type fleet struct {
	servers []*proc
	router  *proc
}

// deploy starts w's fleet on stores with the daemons' default flags; admin
// adds each daemon's admin listener for a /metrics scrape.
func deploy(w workload, stores []string, admin bool) (*fleet, error) {
	common := []string{"-addr", "127.0.0.1:0"}
	if admin {
		common = append(common, "-admin-addr", "127.0.0.1:0")
	}
	f := &fleet{}
	addrs := make([]string, 0, w.servers())
	for i := 0; i < w.servers(); i++ {
		store := stores[0]
		if w.shards > 0 {
			store = stores[i]
		}
		p, err := spawn(binPath("plserve"), fmt.Sprintf("serve%d", i), append([]string{"-labels", store}, common...), true)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.servers = append(f.servers, p)
		addrs = append(addrs, p.addr)
	}
	if w.routed() {
		p, err := spawn(binPath("plroute"), "router", append([]string{"-shards", strings.Join(addrs, ",")}, common...), true)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.router = p
	}
	return f, nil
}

// entry is the address clients dial.
func (f *fleet) entry() string {
	if f.router != nil {
		return f.router.addr
	}
	return f.servers[0].addr
}

func (f *fleet) serverAddrs() []string {
	addrs := make([]string, len(f.servers))
	for i, p := range f.servers {
		addrs[i] = p.addr
	}
	return addrs
}

func (f *fleet) procs() []*proc {
	ps := append([]*proc(nil), f.servers...)
	if f.router != nil {
		ps = append(ps, f.router)
	}
	return ps
}

// stop drains the router first, then the servers, waiting for each.
func (f *fleet) stop() {
	if f.router != nil {
		f.router.stop()
	}
	for _, p := range f.servers {
		p.stop()
	}
}

// peakRSSMiB sums the daemons' peak resident set (VmHWM).
func (f *fleet) peakRSSMiB() (float64, error) {
	var kib int64
	for _, p := range f.procs() {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		v, err := statusField(string(b), "VmHWM")
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.role, err)
		}
		kib += v
	}
	return float64(kib) / 1024, nil
}

// statusField reads a "Key:   123 kB" line of /proc/<pid>/status.
func statusField(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", key)
}

// scrape reads a daemon's /metrics once and returns each sample by its
// full series name, labels included.
func scrape(p *proc) (map[string]float64, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections() // lets the daemon's admin server drain at once
	resp, err := client.Get("http://" + p.admin + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", p.role, err)
	}
	defer resp.Body.Close()
	series := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series[line[:i]] = v
	}
	return series, sc.Err()
}

// filesSize sums the sizes of the given files.
func filesSize(paths []string) (int64, error) {
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
