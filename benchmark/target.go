package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"algrec/internal/server"
)

// maxBody is the request body limit both kinds of target run with: the
// b100k script is 1.5 MB, over the service's 1 MiB default.
const maxBody = 64 << 20

// target is a service under load: a spawned algrecd (every reported
// end-to-end number) or an in-process server (-smoke and the tests, which
// must not depend on a built binary).
type target interface {
	URL() string
	// CPU is the service's cumulative user+system time; 0 in process.
	CPU() time.Duration
	// PeakRSS is the resident-set high-water mark, in bytes, of the largest
	// incarnation stopped so far; 0 in process.
	PeakRSS() int64
	// Restart stops the service gracefully and starts it again on the same
	// store directory, returning once it answers /healthz; respawned is
	// when the new incarnation was started.
	Restart() (respawned time.Time, err error)
	// Stop shuts the service down gracefully and waits until it has ended.
	Stop() error
}

// launcher starts targets; diskDir "" means memory-backed.
type launcher func(diskDir string) (target, error)

// ---- spawned child ----

// child is one algrecd process.
type child struct {
	bin, diskDir string
	cmd          *exec.Cmd
	url          string
	logMu        sync.Mutex
	log          bytes.Buffer
	// spent sums the CPU of earlier incarnations (Restart), so CPU keeps
	// growing across a respawn.
	spent   time.Duration
	peakRSS int64
}

// lockedWriter appends the child's stderr to its log under the mutex.
type lockedWriter struct{ c *child }

func (w lockedWriter) Write(p []byte) (int, error) {
	w.c.logMu.Lock()
	defer w.c.logMu.Unlock()
	return w.c.log.Write(p)
}

// spawnLauncher returns a launcher that runs the algrecd binary at bin.
func spawnLauncher(bin string) launcher {
	return func(diskDir string) (target, error) {
		c := &child{bin: bin, diskDir: diskDir}
		if err := c.start(); err != nil {
			return nil, err
		}
		return c, nil
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start spawns the process and polls /healthz until it serves. The port is
// picked and released before the child binds it, so a lost race shows as a
// child that exits at once; try again on another port.
func (c *child) start() error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = c.startOnce(); err == nil {
			return nil
		}
	}
	return err
}

func (c *child) startOnce() error {
	port, err := freePort()
	if err != nil {
		return err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-addr", addr, "-max-body", strconv.Itoa(maxBody)}
	if c.diskDir != "" {
		args = append(args, "-disk", c.diskDir)
	}
	c.cmd = exec.Command(c.bin, args...)
	c.cmd.Stderr = lockedWriter{c}
	if err := c.cmd.Start(); err != nil {
		return fmt.Errorf("spawn %s: %w", c.bin, err)
	}
	registerCleanup(c, func() { _ = c.cmd.Process.Kill(); _, _ = c.cmd.Process.Wait() })
	c.url = "http://" + addr
	if err := waitHealthy(c.url, 15*time.Second); err != nil {
		_ = c.cmd.Process.Kill()
		_ = c.cmd.Wait()
		unregisterCleanup(c)
		return fmt.Errorf("algrecd on %s: %w; log:\n%s", addr, err, c.logText())
	}
	return nil
}

func (c *child) logText() string {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	return c.log.String()
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(url string, limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy after %s (last error: %v)", limit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *child) URL() string { return c.url }

// clockTick is the unit of the utime and stime fields of /proc/<pid>/stat:
// USER_HZ, 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// procCPU reads a live process's user+system time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", b)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

func (c *child) CPU() time.Duration {
	cpu, err := procCPU(c.cmd.Process.Pid)
	if err != nil {
		return c.spent
	}
	return c.spent + cpu
}

// procPeakRSS reads a live process's resident-set high-water mark, VmHWM in
// /proc/<pid>/status, in bytes. It is the mark of the address space the
// process got at exec. The ru_maxrss that wait4 reports is not: exec folds
// the high-water mark of the address space it replaces into it, and a child
// Go spawns shares its parent's until exec, so ru_maxrss is never below the
// generator's own peak.
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc status line %q: %w", line, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func (c *child) PeakRSS() int64 { return c.peakRSS }

// Stop notes the process's peak memory, sends SIGTERM, waits for the
// process, and requires the drain line the daemon logs last on a clean
// shutdown.
func (c *child) Stop() error {
	defer unregisterCleanup(c)
	rss, err := procPeakRSS(c.cmd.Process.Pid)
	if err != nil {
		return fmt.Errorf("algrecd's peak memory: %w", err)
	}
	c.peakRSS = max(c.peakRSS, rss) // the largest incarnation, across Restart
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("algrecd exit: %w; log:\n%s", err, c.logText())
		}
	case <-time.After(30 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
		return fmt.Errorf("algrecd did not drain within 30s; log:\n%s", c.logText())
	}
	st := c.cmd.ProcessState
	c.spent += st.UserTime() + st.SystemTime()
	if !strings.Contains(c.logText(), "drained; bye") {
		return fmt.Errorf("algrecd ended without \"drained; bye\"; log:\n%s", c.logText())
	}
	return nil
}

func (c *child) Restart() (time.Time, error) {
	if err := c.Stop(); err != nil {
		return time.Time{}, err
	}
	c.logMu.Lock()
	c.log.Reset()
	c.logMu.Unlock()
	respawned := time.Now()
	return respawned, c.start()
}

// ---- in-process server ----

// inproc serves the same handler from this process over a loopback
// listener.
type inproc struct {
	diskDir string
	srv     *server.Server
	hs      *httptest.Server
}

// inprocLauncher starts in-process targets.
func inprocLauncher(diskDir string) (target, error) {
	p := &inproc{diskDir: diskDir}
	if err := p.start(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *inproc) start() error {
	cfg := server.Config{MaxBodyBytes: maxBody}
	if p.diskDir != "" {
		cfg.Storage = &server.StorageConfig{Dir: p.diskDir}
	}
	p.srv = server.New(cfg)
	if _, err := p.srv.OpenStorage(); err != nil {
		return err
	}
	p.hs = httptest.NewServer(p.srv.Handler())
	return nil
}

func (p *inproc) URL() string        { return p.hs.URL }
func (p *inproc) CPU() time.Duration { return 0 }
func (p *inproc) PeakRSS() int64     { return 0 }

// Stop drains as cmd/algrecd does: refuse new work, end the subscriptions,
// wait for in-flight requests, close the stores.
func (p *inproc) Stop() error {
	p.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := p.hs.Config.Shutdown(ctx); err != nil {
		return err
	}
	p.hs.Close()
	return p.srv.Close()
}

func (p *inproc) Restart() (time.Time, error) {
	if err := p.Stop(); err != nil {
		return time.Time{}, err
	}
	respawned := time.Now()
	return respawned, p.start()
}

// ---- cleanup on every exit path ----

var (
	cleanupMu sync.Mutex
	cleanups  = map[any]func(){}
)

// registerCleanup records what must be undone if the benchmark ends before
// the owner undoes it itself: kill a child, remove a temporary directory.
func registerCleanup(key any, f func()) {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	cleanups[key] = f
}

func unregisterCleanup(key any) {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	delete(cleanups, key)
}

// runCleanups undoes everything still registered; main calls it on every
// way out, including a signal.
func runCleanups() {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	for k, f := range cleanups {
		f()
		delete(cleanups, k)
	}
}

// tempDir makes a directory under base that is removed by its release
// function or, failing that, by runCleanups.
func tempDir(base, pattern string) (dir string, release func(), err error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err = os.MkdirTemp(base, pattern)
	if err != nil {
		return "", nil, err
	}
	key := new(int)
	rm := func() { _ = os.RemoveAll(dir) }
	registerCleanup(key, rm)
	return dir, func() { rm(); unregisterCleanup(key) }, nil
}
