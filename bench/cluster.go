package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"

	"accelstream"
)

// binaries are the real daemons, built from the checkout the harness
// runs in.
type binaries struct {
	streamd, streamshard string
	buildSeconds         float64
}

// buildBinaries compiles cmd/streamd and cmd/streamshard of the module at
// root into dir. The go command's own cache makes a repeat build cheap.
func buildBinaries(root, dir string) (*binaries, error) {
	b := &binaries{
		streamd:     filepath.Join(dir, "streamd"),
		streamshard: filepath.Join(dir, "streamshard"),
	}
	start := time.Now()
	// With several packages, -o names the directory the binaries go into.
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/streamd", "./cmd/streamshard")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building the daemons: %v\n%s", err, msg)
	}
	b.buildSeconds = time.Since(start).Seconds()
	return b, nil
}

var (
	listenLine  = regexp.MustCompile(`listening on (\S+)`)
	metricsLine = regexp.MustCompile(`metrics on http://([^/\s]+)/metrics`)
)

// daemon is one spawned streamd or streamshard. Its stderr is watched for
// the two lines that announce the ephemeral session and metrics ports.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	metrics string
	done    chan struct{} // closed once the process has been waited for

	mu    sync.Mutex
	log   bytes.Buffer
	ready chan struct{}
}

// Write receives the daemon's stderr.
func (d *daemon) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.log.Len() < 64<<10 {
		d.log.Write(p)
	}
	if d.addr == "" || d.metrics == "" {
		text := d.log.String()
		if m := listenLine.FindStringSubmatch(text); m != nil {
			d.addr = m[1]
		}
		if m := metricsLine.FindStringSubmatch(text); m != nil {
			d.metrics = m[1]
		}
		if d.addr != "" && d.metrics != "" {
			close(d.ready)
		}
	}
	return len(p), nil
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// startDaemon spawns bin on ephemeral loopback ports and waits until it
// is listening.
func startDaemon(bin string, args ...string) (*daemon, error) {
	d := &daemon{done: make(chan struct{}), ready: make(chan struct{})}
	args = append([]string{"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-quiet"}, args...)
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = d
	// The child dies with the harness even when the harness is killed
	// outright and never reaches its own cleanup.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	track(d, true)
	go func() {
		d.cmd.Wait()
		track(d, false)
		close(d.done)
	}()
	select {
	case <-d.ready:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening:\n%s", filepath.Base(bin), d.logTail())
	case <-time.After(15 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s not listening after 15s:\n%s", filepath.Base(bin), d.logTail())
	}
}

// stop ends the process gracefully — its sessions are closed by now, so
// the daemon's drain is immediate — and returns once it has been waited
// for.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		d.kill()
	}
}

// kill ends the process at once and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// node is one server of a topology: a spawned daemon or a server hosted
// inside the harness process.
type node struct {
	addr  string
	d     *daemon
	local *accelstream.Server
}

// metricsText returns the node's Prometheus exposition.
func (n *node) metricsText() (string, error) {
	if n.local != nil {
		rec := httptest.NewRecorder()
		n.local.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Body.String(), nil
	}
	resp, err := http.Get("http://" + n.d.metrics + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s/metrics: %s", n.d.metrics, resp.Status)
	}
	return string(body), nil
}

func (n *node) stop() {
	if n.d != nil {
		n.d.stop()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n.local.Shutdown(ctx)
}

// cluster is one running topology. front is where the client dials; tier
// is the streamd tier (front itself when the workload is not sharded).
type cluster struct {
	front *node
	tier  []*node
}

// routed reports whether a streamshard front sits before the tier.
func (c *cluster) routed() bool { return c.front != c.tier[0] }

func (c *cluster) nodes() []*node {
	if !c.routed() {
		return c.tier
	}
	return append([]*node{c.front}, c.tier...)
}

func (c *cluster) stop() {
	// Front first: its router sessions close before the shards go away.
	for _, n := range c.nodes() {
		n.stop()
	}
}

// pids lists the spawned processes by role.
func (c *cluster) pids() map[string][]int {
	out := map[string][]int{}
	for _, n := range c.tier {
		if n.d != nil {
			out["streamd"] = append(out["streamd"], n.d.cmd.Process.Pid)
		}
	}
	if c.routed() && c.front.d != nil {
		out["streamshard"] = []int{c.front.d.cmd.Process.Pid}
	}
	return out
}

// startCluster brings up the workload's topology on loopback. With bins
// and no tracer every server is the real binary. A tracer hosts the
// streamd tier inside the harness behind its instrumented listener and
// engine (streamshard, when the workload has one, stays the real binary
// in front). Without bins everything runs in-process — the smoke mode.
func startCluster(w spec, bins *binaries, tr *tracer) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			for _, n := range c.tier {
				n.stop()
			}
		}
	}()
	tierSize := 1
	if w.sharded {
		tierSize = shards
	}
	for i := 0; i < tierSize; i++ {
		var n *node
		if bins != nil && tr == nil {
			n, err = startProcess(bins.streamd, "-probe-kernel", w.kernel().String())
		} else {
			cfg := accelstream.ServerConfig{ProbeKernel: w.kernel()}
			if tr != nil {
				cfg.NewEngine = tr.engineFactory(i)
			}
			n, err = startLocal(cfg, tr, i)
		}
		if err != nil {
			return nil, err
		}
		c.tier = append(c.tier, n)
	}
	if !w.sharded {
		c.front = c.tier[0]
		return c, nil
	}
	addrs := make([]string, len(c.tier))
	for i, n := range c.tier {
		addrs[i] = n.addr
	}
	if bins != nil {
		c.front, err = startProcess(bins.streamshard, "-shards", strings.Join(addrs, ","))
	} else {
		c.front, err = startLocal(accelstream.ServerConfig{NewEngine: routerFactory(addrs)}, nil, 0)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

func startProcess(bin string, args ...string) (*node, error) {
	d, err := startDaemon(bin, args...)
	if err != nil {
		return nil, err
	}
	return &node{addr: d.addr, d: d}, nil
}

// startLocal serves cfg on an ephemeral loopback port inside the harness.
func startLocal(cfg accelstream.ServerConfig, tr *tracer, shard int) (*node, error) {
	srv, err := accelstream.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if tr != nil {
		ln = tr.listener(ln, shard)
	}
	if err := srv.Register(ln); err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	return &node{addr: addr, local: srv}, nil
}

// routerFactory is the in-process stand-in for cmd/streamshard: each
// front session is served by a shard router over addrs.
func routerFactory(addrs []string) func(accelstream.SessionConfig) (accelstream.SessionEngineImpl, error) {
	return func(oc accelstream.SessionConfig) (accelstream.SessionEngineImpl, error) {
		r, err := accelstream.DialSharded(accelstream.ShardConfig{
			Addrs: addrs, Cores: oc.Cores, Window: oc.Window, ProbeKernel: oc.ProbeKernel,
		})
		if err != nil {
			return nil, err
		}
		return routerEngine{r}, nil
	}
}

type routerEngine struct{ r *accelstream.ShardRouter }

func (e routerEngine) Start() error                          { return nil }
func (e routerEngine) PushBatch(b []accelstream.Input) error { return e.r.SendBatch(b) }
func (e routerEngine) Results() <-chan accelstream.Result    { return e.r.Results() }
func (e routerEngine) Backlog() int                          { return e.r.Backlog() }
func (e routerEngine) Close() error                          { _, err := e.r.Close(); return err }

// uniEngine adapts the software uni-flow engine to the server's Engine
// interface, as the server's own (unexported) adapter does.
type uniEngine struct{ *accelstream.SoftwareUniFlow }

func newUniEngine(cfg accelstream.SessionConfig) (uniEngine, error) {
	e, err := accelstream.NewSoftwareUniFlow(accelstream.SoftwareConfig{
		NumCores:    cfg.Cores,
		WindowSize:  cfg.Window,
		ShardCount:  cfg.ShardCount,
		ShardIndex:  cfg.ShardIndex,
		BaseSeqR:    cfg.BaseSeqR,
		BaseSeqS:    cfg.BaseSeqS,
		ProbeKernel: cfg.ProbeKernel,
	})
	return uniEngine{e}, err
}

func (e uniEngine) PushBatch(b []accelstream.Input) error {
	e.SoftwareUniFlow.PushBatch(b)
	return nil
}

func (e uniEngine) Backlog() int { return len(e.Results()) }

// procCPU returns the user+system CPU seconds a process has used so far,
// from /proc/<pid>/stat (clock ticks are 1/100 s on Linux).
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

func parseProcStat(stat string) (float64, error) {
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var utime, stime float64
	if _, err := fmt.Sscan(f[11], &utime); err != nil {
		return 0, err
	}
	if _, err := fmt.Sscan(f[12], &stime); err != nil {
		return 0, err
	}
	return (utime + stime) / 100, nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in MiB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(strings.TrimSpace(rest), &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
