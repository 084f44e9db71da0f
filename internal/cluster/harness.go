package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"psgraph/internal/ps"
	"psgraph/internal/rpc"
)

// ErrConstrained marks startup failures caused by the host, not the
// code: too few CPUs for the requested process count, exhausted
// loopback ports or file descriptors. Tests skip (with the reason)
// instead of flaking on it.
var ErrConstrained = errors.New("cluster: constrained host")

// Config sizes a process cluster. Zero values pick the defaults noted
// per field; counts are capped by host parallelism (see capForHost).
type Config struct {
	Servers   int // parameter server processes (default 2)
	Executors int // executor agent processes (default 2)

	Replicate bool          // ring-next replication + heartbeat leases
	Lease     time.Duration // heartbeat lease, the failure detector (default 100ms under Replicate)
	Ckpt      time.Duration // periodic checkpoint interval

	Dir          string                        // workdir for logs/ports/dfs (default: fresh temp dir, removed on Close)
	Bin          string                        // psnode binary (default: NodeBinary())
	StartTimeout time.Duration                 // per-process readiness deadline (default 20s)
	Log          func(format string, a ...any) // optional narrator
}

// Proc is one spawned node process.
type Proc struct {
	Role    string
	Name    string
	Addr    string
	LogPath string

	cmd  *exec.Cmd
	done chan struct{} // closed once the process is reaped
	wErr error
}

// Alive reports whether the process has not been reaped yet.
func (p *Proc) Alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// ProcCluster is a running multi-process deployment: one master,
// Config.Servers parameter servers, Config.Executors executor agents —
// every one a separate OS process on loopback TCP. The driver process
// (the one holding this struct) talks to all of them over Transport.
type ProcCluster struct {
	Cfg Config
	Dir string
	Bin string

	Transport *rpc.TCP
	Master    *Proc

	mu        sync.Mutex
	servers   []*Proc
	executors []*Proc
	nextID    int
	rmDir     bool
	closeOnce sync.Once
}

func (c *Config) setDefaults() error {
	if c.Servers <= 0 {
		c.Servers = 2
	}
	if c.Executors <= 0 {
		c.Executors = 2
	}
	c.capForHost()
	if c.Replicate && c.Lease <= 0 {
		c.Lease = 100 * time.Millisecond
	}
	if c.StartTimeout <= 0 {
		c.StartTimeout = 20 * time.Second
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return nil
}

// capForHost bounds the process count by host parallelism: each node
// is mostly idle, so 4 processes per CPU is comfortable, but a
// constrained host (single-CPU CI shard) must not be asked to schedule
// a dozen race-instrumented runtimes. Counts are reduced, never below
// the 1+2+1 floor a meaningful cluster needs.
func (c *Config) capForHost() {
	budget := runtime.NumCPU() * 4
	if budget < 8 {
		// Nodes are mostly idle (RPC-bound), so even a single-CPU host
		// schedules the default master + 2 servers + 2 executors fine;
		// the cap exists to stop big explicit counts from thrashing it.
		budget = 8
	}
	// master + driver overhead
	budget -= 2
	if c.Servers > budget-1 {
		c.Servers = budget - 1
		if c.Servers < 2 {
			c.Servers = 2
		}
	}
	if c.Executors > budget-c.Servers {
		c.Executors = budget - c.Servers
		if c.Executors < 1 {
			c.Executors = 1
		}
	}
}

// constrained classifies resource-exhaustion errors so callers can
// skip rather than fail: exhausted loopback ports, fd limits, fork
// limits.
func constrained(err error) bool {
	if err == nil {
		return false
	}
	s := err.Error()
	for _, marker := range []string{
		"address already in use",
		"cannot assign requested address",
		"too many open files",
		"resource temporarily unavailable",
		"no buffer space available",
	} {
		if strings.Contains(s, marker) {
			return true
		}
	}
	return false
}

// StartCluster builds (or reuses) the psnode binary, launches the
// master and waits it healthy, then launches servers and executors in
// parallel and waits each healthy — readiness is always the Health
// probe with capped backoff, never a sleep. On any failure everything
// already spawned is reaped before returning. Resource-exhaustion
// failures come back wrapped in ErrConstrained.
func StartCluster(cfg Config) (*ProcCluster, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	c := &ProcCluster{Cfg: cfg, Bin: cfg.Bin, Dir: cfg.Dir, Transport: rpc.NewTCP()}
	if c.Bin == "" {
		bin, err := NodeBinary()
		if err != nil {
			c.Transport.Close()
			return nil, err
		}
		c.Bin = bin
	}
	if c.Dir == "" {
		dir, err := os.MkdirTemp("", "pscluster-")
		if err != nil {
			c.Transport.Close()
			return nil, err
		}
		c.Dir, c.rmDir = dir, true
	}
	if err := os.MkdirAll(c.dfsDir(), 0o755); err != nil {
		c.Close()
		return nil, err
	}

	master, err := c.launch(RoleMaster, "master", "")
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Master = master

	var wg sync.WaitGroup
	errs := make([]error, cfg.Servers+cfg.Executors)
	for i := 0; i < cfg.Servers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.StartServer()
		}(i)
	}
	for i := 0; i < cfg.Executors; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[cfg.Servers+i] = c.StartExecutor()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			c.Close()
			return nil, err
		}
	}
	cfg.Log("cluster up: master=%s servers=%d executors=%d dir=%s",
		master.Addr, cfg.Servers, cfg.Executors, c.Dir)
	liveMu.Lock()
	liveClusters[c] = struct{}{}
	liveMu.Unlock()
	return c, nil
}

// Live fleets, for signal handlers: a driver that catches SIGINT can
// drain every spawned process fleet before exiting instead of leaning
// on pdeathsig's hard kill.
var (
	liveMu       sync.Mutex
	liveClusters = map[*ProcCluster]struct{}{}
)

// CloseAll drains every cluster started by this process that has not
// been closed yet. Safe to call concurrently with a racing Close.
func CloseAll() {
	liveMu.Lock()
	fleets := make([]*ProcCluster, 0, len(liveClusters))
	for c := range liveClusters {
		fleets = append(fleets, c)
	}
	liveMu.Unlock()
	for _, c := range fleets {
		c.Close()
	}
}

func (c *ProcCluster) dfsDir() string { return filepath.Join(c.Dir, "dfs") }

// Servers returns the server processes launched so far, including
// killed ones (check Alive).
func (c *ProcCluster) Servers() []*Proc {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Proc(nil), c.servers...)
}

// Executors returns the executor processes.
func (c *ProcCluster) Executors() []*Proc {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Proc(nil), c.executors...)
}

// LiveServerAddrs lists addresses of server processes not yet reaped.
func (c *ProcCluster) LiveServerAddrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, p := range c.servers {
		if p.Alive() {
			out = append(out, p.Addr)
		}
	}
	return out
}

// NewClient returns a PS agent in the driver process.
func (c *ProcCluster) NewClient() *ps.Client {
	return ps.NewClient(c.Transport, c.Master.Addr)
}

// StartServer launches one more parameter server process and waits it
// healthy (registered + heartbeating).
func (c *ProcCluster) StartServer() (*Proc, error) {
	c.mu.Lock()
	c.nextID++
	name := fmt.Sprintf("server-%d", c.nextID)
	c.mu.Unlock()
	p, err := c.launch(RoleServer, name, "")
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.servers = append(c.servers, p)
	c.mu.Unlock()
	return p, nil
}

// RestartServer relaunches a dead server process under its OLD address
// so the master observes a crash-restart REJOIN (RegisterServer clears
// the dead mark, replication reseeds around it) rather than a new
// member. The process must already be reaped (Kill9/Stop).
func (c *ProcCluster) RestartServer(dead *Proc) (*Proc, error) {
	if dead.Alive() {
		return nil, fmt.Errorf("cluster: %s still running", dead.Name)
	}
	p, err := c.launch(RoleServer, dead.Name+"-r", dead.Addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.servers = append(c.servers, p)
	c.mu.Unlock()
	return p, nil
}

// KillMaster delivers SIGKILL to the master process — the metadata-WAL
// crash the fenced-recovery path exists for — and returns the reaped
// Proc for a later RestartMaster.
func (c *ProcCluster) KillMaster() *Proc {
	m := c.Master
	c.Kill9(m)
	return m
}

// RestartMaster relaunches the master under its OLD address after a
// KillMaster/Stop: the new process replays the metadata WAL from the
// shared DFS before listening, so servers (which keep heartbeating the
// address) and clients (which retry-backoff against it) reconnect to a
// master that already knows the fleet and every layout. The old process
// must already be reaped.
func (c *ProcCluster) RestartMaster() (*Proc, error) {
	old := c.Master
	if old.Alive() {
		return nil, fmt.Errorf("cluster: master %s still running", old.Name)
	}
	c.mu.Lock()
	c.nextID++
	name := fmt.Sprintf("master-r%d", c.nextID)
	c.mu.Unlock()
	p, err := c.launch(RoleMaster, name, old.Addr)
	if err != nil {
		return nil, err
	}
	// Same address, fresh process. Swapped after the health probe so a
	// concurrent NewClient never targets a half-started master.
	c.Master = p
	return p, nil
}

// StartExecutor launches one more executor agent process.
func (c *ProcCluster) StartExecutor() (*Proc, error) {
	c.mu.Lock()
	c.nextID++
	name := fmt.Sprintf("executor-%d", c.nextID)
	c.mu.Unlock()
	p, err := c.launch(RoleExecutor, name, "")
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.executors = append(c.executors, p)
	c.mu.Unlock()
	return p, nil
}

// launch spawns one psnode process with stdout+stderr captured to
// <name>.log, waits for its port file, then probes it healthy.
func (c *ProcCluster) launch(role, name, addr string) (*Proc, error) {
	portFile := filepath.Join(c.Dir, name+".port")
	logPath := filepath.Join(c.Dir, name+".log")
	os.Remove(portFile)
	args := []string{
		"-role", role,
		"-portfile", portFile,
		"-dfs", c.dfsDir(),
	}
	if addr != "" {
		args = append(args, "-addr", addr)
	}
	if role != RoleMaster {
		args = append(args, "-master", c.Master.Addr)
	}
	if c.Cfg.Replicate {
		args = append(args, "-replicate")
	}
	if c.Cfg.Lease > 0 {
		args = append(args, "-lease", c.Cfg.Lease.String())
	}
	if role == RoleMaster {
		if c.Cfg.Ckpt > 0 {
			args = append(args, "-ckpt", c.Cfg.Ckpt.String())
		}
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(c.Bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	// If the harness process itself dies without running Close — a test
	// binary shot by a timeout, a driver killed mid-run — the kernel must
	// reap the fleet, or orphaned psnodes hold their ports forever.
	cmd.SysProcAttr = procAttr()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		if constrained(err) {
			err = fmt.Errorf("%w: %v", ErrConstrained, err)
		}
		return nil, fmt.Errorf("cluster: start %s: %w", name, err)
	}
	p := &Proc{Role: role, Name: name, LogPath: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.wErr = cmd.Wait()
		logFile.Close()
		close(p.done)
	}()
	fail := func(err error) (*Proc, error) {
		cmd.Process.Kill()
		<-p.done
		if constrained(err) {
			err = fmt.Errorf("%w: %v", ErrConstrained, err)
		}
		return nil, fmt.Errorf("cluster: %s (log %s): %w", name, logPath, err)
	}
	p.Addr, err = WaitPortFile(portFile, c.Cfg.StartTimeout)
	if err != nil {
		return fail(err)
	}
	if _, err := WaitHealthy(c.Transport, p.Addr, c.Cfg.StartTimeout); err != nil {
		return fail(err)
	}
	c.Cfg.Log("%s ready at %s", name, p.Addr)
	return p, nil
}

// Kill9 delivers SIGKILL — no drain, no cleanup, exactly what an OOM
// kill does — and reaps the process.
func (c *ProcCluster) Kill9(p *Proc) {
	p.cmd.Process.Kill()
	<-p.done
	c.Cfg.Log("killed -9 %s (%s)", p.Name, p.Addr)
}

// RunLoad drives req on executor p, blocking until the load completes.
func (c *ProcCluster) RunLoad(p *Proc, req LoadReq) (LoadResp, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return LoadResp{}, err
	}
	resp, err := c.Transport.Call(p.Addr, "RunLoad", body)
	if err != nil {
		return LoadResp{}, err
	}
	var out LoadResp
	err = json.Unmarshal(resp, &out)
	return out, err
}

// Close reaps every spawned process (SIGTERM, escalating) and releases
// the driver transport. Always safe to defer, even after a partial
// start or mid-test failure: nothing stays orphaned. Idempotent, so a
// signal handler's CloseAll can race a deferred Close.
func (c *ProcCluster) Close() {
	c.closeOnce.Do(c.close)
}

func (c *ProcCluster) close() {
	liveMu.Lock()
	delete(liveClusters, c)
	liveMu.Unlock()
	c.mu.Lock()
	procs := append(append([]*Proc(nil), c.executors...), c.servers...)
	c.mu.Unlock()
	if c.Master != nil {
		procs = append(procs, c.Master)
	}
	for _, p := range procs {
		if p.Alive() {
			p.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	deadline := time.After(5 * time.Second)
	for _, p := range procs {
		select {
		case <-p.done:
		case <-deadline:
			p.cmd.Process.Kill()
			<-p.done
		}
	}
	c.Transport.Close()
	if c.rmDir {
		os.RemoveAll(c.Dir)
	}
}
