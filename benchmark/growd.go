package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server/client"
)

// growd is one served child process. Each workload set-up starts a
// fresh one, so no run inherits another's table, heap or counters.
type growd struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
}

// children tracks live growd processes so the watchdog and signal
// handler can kill them whatever state the run is in.
var children struct {
	sync.Mutex
	live map[*growd]struct{}
}

func killChildren() {
	children.Lock()
	defer children.Unlock()
	for g := range children.live {
		_ = g.cmd.Process.Kill() // already exiting: nothing left to do about an error
	}
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before growd binds it; nothing else on this box races for it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a loopback port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startGrowd launches bin with args on a free loopback port and returns
// once it answers PING.
func startGrowd(bin string, args ...string) (*growd, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	g := &growd{addr: addr}
	g.cmd = exec.Command(bin, append([]string{"-addr", addr, "-drain", "1s"}, args...)...)
	g.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs), "GOGC="+strconv.Itoa(gogc))
	g.cmd.Stderr = &g.stderr
	// The child must not outlive a driver that is killed outright.
	g.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := g.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start growd: %w", err)
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*growd]struct{})
	}
	children.live[g] = struct{}{}
	children.Unlock()

	cl, err := client.Dial(addr, client.WithDialWait(10*time.Second))
	if err == nil {
		err = cl.Ping()
		cl.Close()
	}
	if err != nil {
		g.stop()
		return nil, fmt.Errorf("growd did not answer PING: %w\n%s", err, g.stderr.String())
	}
	return g, nil
}

// stop asks growd to drain, kills it if it does not, and waits for the
// process to end.
func (g *growd) stop() {
	_ = g.cmd.Process.Signal(syscall.SIGTERM) // a dead child is reaped by Wait below
	done := make(chan struct{})
	go func() {
		_ = g.cmd.Wait() // exit status is irrelevant once the run is over
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		_ = g.cmd.Process.Kill()
		<-done
	}
	children.Lock()
	delete(children.live, g)
	children.Unlock()
}

func (g *growd) pid() int { return g.cmd.Process.Pid }

// rssMB reads a process's resident set from /proc/<pid>/status.
func rssMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmRSS %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// cpuSeconds reads a process's user+system CPU time from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after ")".
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat times", pid)
	}
	return (ut + st) / 100, nil
}
