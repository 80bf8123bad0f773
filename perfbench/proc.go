package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// node is one ordod process the benchmark started. Each runs in its own
// process group with a parent-death signal, so it can neither outlive the
// benchmark nor be hit by a signal meant for the benchmark's own group.
type node struct {
	name    string
	dir     string // working files: WAL, addr files, log
	args    []string
	cmd     *exec.Cmd
	done    chan struct{}
	addr    string // client address
	admin   string // admin HTTP address, empty without -admin-addr
	started time.Time
}

// procs tracks every live node so a failed check, a panic or a signal can
// stop them all.
var procs struct {
	sync.Mutex
	live map[*node]bool
}

// spawnReq asks the spawner goroutine to start a command.
type spawnReq struct {
	cmd  *exec.Cmd
	errc chan error
}

var spawnc = make(chan spawnReq)

// The parent-death signal fires when the OS thread that forked the child
// exits, not when the process does, so every child is forked from one
// goroutine locked to its thread for the life of the process.
func init() {
	go func() {
		runtime.LockOSThread()
		for r := range spawnc {
			r.errc <- r.cmd.Start()
		}
	}()
}

// startNode launches ordod with args plus the address-file flags, waits
// until it listens, and returns it. The client and admin ports are chosen
// by the kernel (":0"), so no fixed port is ever used.
func startNode(bin, name, dir string, withAdmin bool, args ...string) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := &node{name: name, dir: dir, args: args}
	return n, n.start(bin, withAdmin)
}

func (n *node) start(bin string, withAdmin bool) error {
	addrFile := filepath.Join(n.dir, "addr")
	adminFile := filepath.Join(n.dir, "admin-addr")
	_ = os.Remove(addrFile)
	_ = os.Remove(adminFile)
	args := append([]string{"-addr-file", addrFile}, n.args...)
	if !hasFlag(args, "-addr") {
		args = append(args, "-addr", "127.0.0.1:0")
	}
	if withAdmin {
		args = append(args, "-admin-addr", "127.0.0.1:0", "-admin-addr-file", adminFile)
	}
	logf, err := os.OpenFile(filepath.Join(n.dir, "ordod.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	n.started = time.Now()
	r := spawnReq{cmd: cmd, errc: make(chan error, 1)}
	spawnc <- r
	if err := <-r.errc; err != nil {
		return fmt.Errorf("start %s: %w", n.name, err)
	}
	n.cmd, n.done = cmd, make(chan struct{})
	procs.Lock()
	if procs.live == nil {
		procs.live = map[*node]bool{}
	}
	procs.live[n] = true
	procs.Unlock()
	go func() {
		_ = cmd.Wait()
		close(n.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		a, _ := os.ReadFile(addrFile)
		b, _ := os.ReadFile(adminFile)
		if len(a) > 0 && (!withAdmin || len(b) > 0) {
			n.addr, n.admin = string(a), string(b)
			return nil
		}
		select {
		case <-n.done:
			return fmt.Errorf("%s exited during start-up: %s", n.name, n.logTail())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not listen within 60s: %s", n.name, n.logTail())
		}
	}
}

func hasFlag(args []string, f string) bool {
	for _, a := range args {
		if a == f {
			return true
		}
	}
	return false
}

// kill SIGKILLs the node's process group and waits until it has exited.
// Only the caller that takes the node off the live set kills it, so a
// signal's cleanup and the main path never both do.
func (n *node) kill() {
	procs.Lock()
	live := procs.live[n]
	delete(procs.live, n)
	procs.Unlock()
	if !live {
		return
	}
	_ = syscall.Kill(-n.cmd.Process.Pid, syscall.SIGKILL)
	<-n.done
}

// restart SIGKILLs the node and starts it again on the same files and
// flags.
func (n *node) restart(bin string, withAdmin bool) error {
	n.kill()
	return n.start(bin, withAdmin)
}

// stopAll kills every live node; safe from any goroutine.
func stopAll() {
	procs.Lock()
	live := make([]*node, 0, len(procs.live))
	for n := range procs.live {
		live = append(live, n)
	}
	procs.Unlock()
	for _, n := range live {
		n.kill()
	}
}

// cpuSeconds returns the node's user+system CPU time so far.
func (n *node) cpuSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(n.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat for %s", n.name)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", n.name)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc stat for %s", n.name)
	}
	return float64(ut+st) / clockTicks, nil
}

func (n *node) logTail() string {
	b, _ := os.ReadFile(filepath.Join(n.dir, "ordod.log"))
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// freePorts reserves k distinct loopback ports by binding them all at once
// and releasing them; used only where ordod needs ports up front (the
// failover -peers map).
func freePorts(k int) ([]string, error) {
	lns := make([]net.Listener, 0, k)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	out := make([]string, 0, k)
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total
}
