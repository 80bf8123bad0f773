package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ordo/internal/loadgen"
	"ordo/internal/wire"
)

// The kill-crash harness: a real ordod subprocess serving durably is
// SIGKILLed at a seeded random point under write load, restarted on the
// same log directory, and the recovered state is checked against exactly
// what the client saw acknowledged:
//
//   - no acked write is lost (recovered seq ≥ last acked seq per key),
//   - no unacked write resurrects as acked (recovered seq ≤ max issued),
//   - keys never issued stay absent,
//   - the restart reports a non-trivial recovery in STATS.
//
// SIGKILL gives the process no chance to flush anything it hadn't already
// fsynced, while the page cache (and so everything fsynced) survives — the
// honest model of a process crash.

// ordodBin is the test-built server binary, compiled once in TestMain.
var ordodBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ordod-crash")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ordodBin = filepath.Join(dir, "ordod")
	out, err := exec.Command("go", "build", "-o", ordodBin, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building ordod: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

const (
	crashSeeds  = 8
	crashKeys   = 48
	crashWindow = 16
	bootTimeout = 30 * time.Second
)

// ordodProc is one running server subprocess.
type ordodProc struct {
	cmd  *exec.Cmd
	addr string
	log  string
}

// startOrdod boots the binary on a :0 port with the given WAL dir and
// waits for the address file. Extra flags (replication roles) append to
// the base invocation.
func startOrdod(t *testing.T, walDir, tag string, extra ...string) *ordodProc {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	logFile := filepath.Join(dir, "ordod-"+tag+".log")
	lf, err := os.Create(logFile)
	if err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-protocol", "OCC_ORDO",
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-wal-dir", walDir,
		"-calibration-runs", "20",
		// Every kill-crash scenario runs sharded: recovery must replay a
		// log written by four lanes (plus coordinator records) correctly.
		"-shards", "4",
	}
	args = append(args, extra...)
	cmd := exec.Command(ordodBin, args...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		t.Fatal(err)
	}
	deadline := time.Now().Add(bootTimeout)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			lf.Close()
			return &ordodProc{cmd: cmd, addr: strings.TrimSpace(string(b)), log: logFile}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			lf.Close()
			b, _ := os.ReadFile(logFile)
			t.Fatalf("ordod (%s) never wrote its address; log:\n%s", tag, b)
		}
		if cmd.ProcessState != nil {
			t.Fatalf("ordod (%s) exited before listening", tag)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func dumpLog(t *testing.T, p *ordodProc) {
	t.Helper()
	if b, err := os.ReadFile(p.log); err == nil {
		t.Logf("ordod log:\n%s", b)
	}
}

// crashClient is the load phase's bookkeeping: per-key sequence numbers
// issued and acked, in strict pipeline order on one connection.
type crashClient struct {
	nc        net.Conn
	c         *wire.Conn
	issued    []crashOp // in-flight window, response order
	maxIssued [crashKeys]uint64
	lastAcked [crashKeys]uint64
	ackedAny  bool
}

type crashOp struct {
	key uint64
	seq uint64
}

// crashRow builds the served table's row for (key, seq): vals[0] is the
// key, vals[1] the per-key sequence number, the rest padding.
func crashRow(key, seq uint64) []uint64 {
	vals := make([]uint64, 10) // ordod's default -cols
	vals[0] = key
	vals[1] = seq
	return vals
}

// drainWindow reads one response per in-flight op; an error means the
// server died mid-window (expected once the kill fires).
func (cc *crashClient) drainWindow() error {
	for len(cc.issued) > 0 {
		cc.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		r, err := cc.c.ReadResponse()
		if err != nil {
			return err
		}
		op := cc.issued[0]
		cc.issued = cc.issued[1:]
		if r.Status == wire.StatusOK {
			cc.lastAcked[op.key] = op.seq
			cc.ackedAny = true
		}
	}
	return nil
}

// killCrashRun drives one seed: load, SIGKILL, restart, verify.
func killCrashRun(t *testing.T, seed int) {
	walDir := t.TempDir()
	p1 := startOrdod(t, walDir, fmt.Sprintf("seed%d-a", seed))

	nc, err := net.Dial("tcp", p1.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cc := &crashClient{nc: nc, c: wire.NewConn(nc)}

	// Phase A: insert every key with seq 0, fully acked before the kill
	// timer starts, so after recovery every key must exist.
	for k := uint64(0); k < crashKeys; k++ {
		if err := cc.c.WriteRequest(&wire.Request{Op: wire.OpInsert, Key: k, Vals: crashRow(k, 0)}); err != nil {
			t.Fatal(err)
		}
		cc.issued = append(cc.issued, crashOp{key: k, seq: 0})
		cc.maxIssued[k] = 0
	}
	if err := cc.c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cc.drainWindow(); err != nil {
		dumpLog(t, p1)
		t.Fatalf("insert phase died: %v", err)
	}
	for k := range cc.lastAcked {
		if cc.lastAcked[k] != 0 {
			t.Fatalf("key %d insert not acked", k)
		}
	}

	// Phase B: per-key increasing PUT sequence under a seeded kill timer.
	// The seed spreads the SIGKILL across 150–850ms of live write load, so
	// the eight runs die at different log offsets — some mid-write (torn
	// tail), some between flushes.
	killDelay := 150*time.Millisecond + time.Duration((seed*97)%700)*time.Millisecond
	killed := make(chan struct{})
	go func() {
		time.Sleep(killDelay)
		p1.cmd.Process.Signal(syscall.SIGKILL)
		close(killed)
	}()

	seq := uint64(1)
	var deadErr error
	for deadErr == nil {
		for i := 0; i < crashWindow; i++ {
			k := (seq + uint64(i)) % crashKeys
			s := seq + uint64(i)
			if err := cc.c.WriteRequest(&wire.Request{Op: wire.OpPut, Key: k, Vals: crashRow(k, s)}); err != nil {
				deadErr = err
				break
			}
			cc.issued = append(cc.issued, crashOp{key: k, seq: s})
			cc.maxIssued[k] = s
		}
		seq += crashWindow
		if deadErr == nil {
			if err := cc.c.Flush(); err != nil {
				deadErr = err
				break
			}
			deadErr = cc.drainWindow()
		}
	}
	<-killed
	p1.cmd.Wait() // reaps the SIGKILLed process
	if !cc.ackedAny {
		t.Fatalf("seed %d: nothing acked before the kill (delay %v); harness too slow", seed, killDelay)
	}

	// Restart on the same directory and sweep every key.
	p2 := startOrdod(t, walDir, fmt.Sprintf("seed%d-b", seed))
	nc2, err := net.Dial("tcp", p2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	c2 := wire.NewConn(nc2)

	for k := uint64(0); k < crashKeys; k++ {
		nc2.SetReadDeadline(time.Now().Add(10 * time.Second))
		r, err := c2.Do(&wire.Request{Op: wire.OpGet, Key: k})
		if err != nil {
			dumpLog(t, p2)
			t.Fatalf("seed %d: GET %d after restart: %v", seed, k, err)
		}
		if r.Status != wire.StatusOK {
			t.Fatalf("seed %d: acked key %d lost after crash: %v", seed, k, r.Status)
		}
		if r.Row[0] != k {
			t.Fatalf("seed %d: key %d recovered wrong row %v", seed, k, r.Row)
		}
		got := r.Row[1]
		if got < cc.lastAcked[k] {
			t.Fatalf("seed %d: key %d recovered seq %d < last acked %d — acked write lost",
				seed, k, got, cc.lastAcked[k])
		}
		if got > cc.maxIssued[k] {
			t.Fatalf("seed %d: key %d recovered seq %d > max issued %d — phantom write",
				seed, k, got, cc.maxIssued[k])
		}
	}
	// A key never issued must not exist.
	if r, err := c2.Do(&wire.Request{Op: wire.OpGet, Key: crashKeys + 7}); err != nil || r.Status != wire.StatusNotFound {
		t.Fatalf("seed %d: unissued key: %v %v, want NOT_FOUND", seed, r.Status, err)
	}
	// The restart must have recovered the pre-crash log, and its device
	// must be healthy.
	r, err := c2.Do(&wire.Request{Op: wire.OpStats})
	if err != nil || r.Stats == nil {
		t.Fatalf("seed %d: stats after restart: %v", seed, err)
	}
	if r.Stats.Value("ordod_recovered_records") == 0 {
		t.Fatalf("seed %d: restart recovered zero records with %d keys live", seed, crashKeys)
	}
	if r.Stats.Value("ordod_wal_device_errors_total") != 0 {
		t.Fatalf("seed %d: device errors after restart: %d", seed, r.Stats.Value("ordod_wal_device_errors_total"))
	}
	nc2.Close()

	// Clean exit on SIGTERM: the drain must succeed (exit 0).
	p2.cmd.Process.Signal(syscall.SIGTERM)
	if err := p2.cmd.Wait(); err != nil {
		dumpLog(t, p2)
		t.Fatalf("seed %d: drain after recovery: %v", seed, err)
	}
}

// TestKillCrashRecovery runs the harness across fixed seeds; each seed
// kills the server at a different point of the write load.
func TestKillCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-crash harness skipped in -short")
	}
	for seed := 1; seed <= crashSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			killCrashRun(t, seed)
		})
	}
}

// ---- replication crash scenarios ----
//
// The same SIGKILL model, applied to a leader/follower pair: kill the
// leader mid-load and restart it on the same log directory and replication
// address, or kill the follower mid-apply and restart it on its own log
// directory. Either way the end state must satisfy, on both processes,
//
//	last acked seq ≤ recovered seq ≤ max issued seq   (per key)
//
// and every leader-acked write must eventually be visible on the follower.

// startLeader boots ordod as a replication leader. replAddr "" picks a
// port; the bound address is returned so a restart can reclaim it (the
// follower keeps dialing the address it was given).
func startLeader(t *testing.T, walDir, tag, replAddr string) (*ordodProc, string) {
	t.Helper()
	if replAddr != "" {
		return startOrdod(t, walDir, tag, "-repl-addr", replAddr), replAddr
	}
	raf := filepath.Join(t.TempDir(), "repl-addr")
	p := startOrdod(t, walDir, tag, "-repl-addr", "127.0.0.1:0", "-repl-addr-file", raf)
	// The replication listener opens before the client listener, so once
	// startOrdod returns the address file is already written.
	b, err := os.ReadFile(raf)
	if err != nil || len(b) == 0 {
		dumpLog(t, p)
		t.Fatalf("leader (%s) wrote no replication address: %v", tag, err)
	}
	return p, strings.TrimSpace(string(b))
}

// waitConverge polls the server at addr until every key carries at least
// its last acked sequence number, then asserts nothing beyond the max
// issued sequence leaked in. The deadline covers follower catch-up after a
// reconnect, which includes a disk backfill of the whole missed range.
func waitConverge(t *testing.T, addr, who string, cc *crashClient) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	deadline := time.Now().Add(30 * time.Second)
	for k := uint64(0); k < crashKeys; k++ {
		for {
			nc.SetReadDeadline(time.Now().Add(10 * time.Second))
			r, err := c.Do(&wire.Request{Op: wire.OpGet, Key: k})
			if err != nil {
				t.Fatalf("%s: GET %d: %v", who, k, err)
			}
			if r.Status == wire.StatusOK && r.Row[1] >= cc.lastAcked[k] {
				if r.Row[0] != k {
					t.Fatalf("%s: key %d served wrong row %v", who, k, r.Row)
				}
				if r.Row[1] > cc.maxIssued[k] {
					t.Fatalf("%s: key %d seq %d > max issued %d — phantom write",
						who, k, r.Row[1], cc.maxIssued[k])
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: key %d stuck at %v (status %v), want seq ≥ %d",
					who, k, r.Row, r.Status, cc.lastAcked[k])
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	// A key never issued must not have appeared either.
	if r, err := c.Do(&wire.Request{Op: wire.OpGet, Key: crashKeys + 7}); err != nil || r.Status != wire.StatusNotFound {
		t.Fatalf("%s: unissued key: %v %v, want NOT_FOUND", who, r.Status, err)
	}
}

// replInsertPhase runs the fully-acked seed inserts (seq 0 on every key)
// through cc, failing the test on any error.
func replInsertPhase(t *testing.T, cc *crashClient, p *ordodProc) {
	t.Helper()
	for k := uint64(0); k < crashKeys; k++ {
		if err := cc.c.WriteRequest(&wire.Request{Op: wire.OpInsert, Key: k, Vals: crashRow(k, 0)}); err != nil {
			t.Fatal(err)
		}
		cc.issued = append(cc.issued, crashOp{key: k, seq: 0})
		cc.maxIssued[k] = 0
	}
	if err := cc.c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cc.drainWindow(); err != nil {
		dumpLog(t, p)
		t.Fatalf("insert phase died: %v", err)
	}
}

// TestReplCrashLeaderKill SIGKILLs the leader under pipelined write load
// with a live follower attached, restarts it on the same WAL directory and
// replication address, and requires the follower to reconnect, resume by
// cursor, and converge on exactly the recovered leader state.
func TestReplCrashLeaderKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess replication crash harness skipped in -short")
	}
	walDirL, walDirF := t.TempDir(), t.TempDir()

	p1, replAddr := startLeader(t, walDirL, "lkill-lead-a", "")
	fol := startOrdod(t, walDirF, "lkill-fol", "-follow", replAddr)
	defer func() {
		fol.cmd.Process.Kill()
		fol.cmd.Wait()
	}()

	nc, err := net.Dial("tcp", p1.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cc := &crashClient{nc: nc, c: wire.NewConn(nc)}
	replInsertPhase(t, cc, p1)

	// PUT load with a mid-stream SIGKILL, as in killCrashRun.
	killed := make(chan struct{})
	go func() {
		time.Sleep(400 * time.Millisecond)
		p1.cmd.Process.Signal(syscall.SIGKILL)
		close(killed)
	}()
	seq := uint64(1)
	var deadErr error
	for deadErr == nil {
		for i := 0; i < crashWindow; i++ {
			k := (seq + uint64(i)) % crashKeys
			s := seq + uint64(i)
			if err := cc.c.WriteRequest(&wire.Request{Op: wire.OpPut, Key: k, Vals: crashRow(k, s)}); err != nil {
				deadErr = err
				break
			}
			cc.issued = append(cc.issued, crashOp{key: k, seq: s})
			cc.maxIssued[k] = s
		}
		seq += crashWindow
		if deadErr == nil {
			if err := cc.c.Flush(); err != nil {
				deadErr = err
				break
			}
			deadErr = cc.drainWindow()
		}
	}
	<-killed
	p1.cmd.Wait()
	if !cc.ackedAny {
		t.Fatal("nothing acked before the leader kill; harness too slow")
	}

	// Restart the leader on the same directory AND the same replication
	// address, so the follower's retry loop finds it again.
	p2, _ := startLeader(t, walDirL, "lkill-lead-b", replAddr)
	defer func() {
		p2.cmd.Process.Signal(syscall.SIGTERM)
		p2.cmd.Wait()
	}()

	// acked ≤ recovered ≤ issued on the restarted leader...
	waitConverge(t, p2.addr, "restarted leader", cc)
	// ...and, eventually, on the follower: every leader-acked write must
	// become visible there, and nothing unissued may materialize.
	waitConverge(t, fol.addr, "follower", cc)
}

// ---- failover crash scenario ----

// reservePort binds an ephemeral port, records it, and releases it so a
// subprocess can claim it. The tiny claim race is acceptable in a test.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// failoverStats polls addr until its STATS snapshot satisfies ok, or the
// deadline passes.
func failoverStats(t *testing.T, addr, who string, wait time.Duration, ok func(*wire.Stats) bool) *wire.Stats {
	t.Helper()
	deadline := time.Now().Add(wait)
	var last *wire.Stats
	for {
		if nc, err := net.Dial("tcp", addr); err == nil {
			nc.SetDeadline(time.Now().Add(5 * time.Second))
			r, err := wire.NewConn(nc).Do(&wire.Request{Op: wire.OpStats})
			nc.Close()
			if err == nil && r.Stats != nil {
				last = r.Stats
				if ok(r.Stats) {
					return r.Stats
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: stats never converged (last %+v)", who, last)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestFailoverLeaderKill boots a three-node failover cluster, SIGKILLs the
// leader under resilient-client write load, and requires: a follower
// promotes itself (epoch 2, writes resume), the run's per-key sweep proves
// acked ≤ recovered ≤ issued across the takeover, and the fenced
// ex-leader rejoins as a follower and converges on the new regime.
func TestFailoverLeaderKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess failover harness skipped in -short")
	}
	const n = 3
	var clientAddrs, replAddrs [n]string
	var peers []string
	for i := 0; i < n; i++ {
		clientAddrs[i] = reservePort(t)
		replAddrs[i] = reservePort(t)
		peers = append(peers, replAddrs[i]+"@"+clientAddrs[i])
	}
	peerList := strings.Join(peers, ",")

	walDirs := [n]string{t.TempDir(), t.TempDir(), t.TempDir()}
	var procs [n]*ordodProc
	for i := 0; i < n; i++ {
		procs[i] = startOrdod(t, walDirs[i], fmt.Sprintf("fo-node%d-a", i),
			"-addr", clientAddrs[i],
			"-failover",
			"-peers", peerList,
			"-peer-index", fmt.Sprint(i),
			"-heartbeat-timeout", "500ms",
		)
	}
	defer func() {
		for _, p := range procs {
			if p != nil {
				p.cmd.Process.Kill()
				p.cmd.Wait()
			}
		}
	}()

	// Cold cluster: priority index 0 must lead, at a fenced (nonzero) epoch.
	failoverStats(t, clientAddrs[0], "cold leader", bootTimeout, func(s *wire.Stats) bool {
		return s.ReplRoleCode == 1 && s.Value("ordod_epoch") >= 1
	})

	// Drive per-key monotone writes through the resilient client while the
	// leader dies mid-run; RunFailover's read-back sweep is the per-key
	// acked ≤ recovered ≤ issued check against the promoted leader.
	type runOut struct {
		res *loadgen.FailoverResult
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := loadgen.RunFailover(loadgen.FailoverConfig{
			Endpoints: clientAddrs[:],
			Workers:   4,
			Keys:      crashKeys,
			Seconds:   8,
			OpTimeout: 2 * time.Second,
			RetryFor:  30 * time.Second,
		})
		done <- runOut{res, err}
	}()

	time.Sleep(2500 * time.Millisecond)
	procs[0].cmd.Process.Signal(syscall.SIGKILL)
	procs[0].cmd.Wait()

	out := <-done
	if out.err != nil {
		for i := 1; i < n; i++ {
			dumpLog(t, procs[i])
		}
		t.Fatalf("failover load: %v", out.err)
	}
	if out.res.Violations != 0 {
		t.Fatalf("%d per-key violations across the takeover", out.res.Violations)
	}
	if out.res.MaxAckGap <= 0 {
		t.Fatal("no ack gap measured; the kill never interrupted the load")
	}
	t.Logf("failover run: acked=%d max ack gap=%v not_leader=%d redirects=%d",
		out.res.Acked, out.res.MaxAckGap, out.res.Client.NotLeaderRetries, out.res.Client.Redirects)

	// One survivor must now lead at a bumped epoch with a promotion counted.
	newLeader := -1
	for i := 1; i < n; i++ {
		s := failoverStats(t, clientAddrs[i], fmt.Sprintf("node%d post-kill", i), bootTimeout,
			func(s *wire.Stats) bool { return s.Value("ordod_epoch") >= 2 })
		if s.ReplRoleCode == 1 {
			if s.Promotions == 0 {
				t.Fatalf("node%d leads epoch %d without counting a promotion", i, s.Value("ordod_epoch"))
			}
			newLeader = i
		}
	}
	if newLeader < 0 {
		t.Fatal("no survivor promoted to leader")
	}

	// The fenced ex-leader rejoins on its old WAL dir and ports: it must
	// come back as a follower of the new regime and converge byte-for-byte.
	procs[0] = startOrdod(t, walDirs[0], "fo-node0-b",
		"-addr", clientAddrs[0],
		"-failover",
		"-peers", peerList,
		"-peer-index", "0",
		"-heartbeat-timeout", "500ms",
	)
	failoverStats(t, clientAddrs[0], "rejoined ex-leader", bootTimeout, func(s *wire.Stats) bool {
		return s.ReplRoleCode == 2 && s.Value("ordod_epoch") >= 2
	})
	lead, err := loadgen.Sweep(clientAddrs[newLeader], crashKeys, crashWindow, 10*time.Second, 10*time.Second)
	if err != nil {
		t.Fatalf("sweep new leader: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, err := loadgen.Sweep(clientAddrs[0], crashKeys, crashWindow, 10*time.Second, 10*time.Second)
		if err == nil && got == lead {
			break
		}
		if time.Now().After(deadline) {
			dumpLog(t, procs[0])
			t.Fatalf("rejoined ex-leader diverged: %+v want %+v (err %v)", got, lead, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestReplCrashFollowerKill SIGKILLs the follower mid-apply while the
// leader keeps serving writes, restarts it on its own WAL directory, and
// requires it to recover from local disk, resume from its durable cursor
// (not from scratch), and converge on the full acked state.
func TestReplCrashFollowerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess replication crash harness skipped in -short")
	}
	walDirL, walDirF := t.TempDir(), t.TempDir()

	lead, replAddr := startLeader(t, walDirL, "fkill-lead", "")
	defer func() {
		lead.cmd.Process.Signal(syscall.SIGTERM)
		lead.cmd.Wait()
	}()
	f1 := startOrdod(t, walDirF, "fkill-fol-a", "-follow", replAddr)

	nc, err := net.Dial("tcp", lead.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cc := &crashClient{nc: nc, c: wire.NewConn(nc)}
	replInsertPhase(t, cc, lead)

	// Make sure the follower is actively applying before aiming the kill
	// at it, so the SIGKILL genuinely lands mid-stream.
	waitConverge(t, f1.addr, "follower pre-kill", cc)

	killed := make(chan struct{})
	go func() {
		time.Sleep(300 * time.Millisecond)
		f1.cmd.Process.Signal(syscall.SIGKILL)
		close(killed)
	}()

	// The leader stays alive: every window must drain acked. Keep writing
	// a few windows past the kill so the stream moves on without the dead
	// follower.
	seq := uint64(1)
	extra := 0
	for extra < 4 {
		select {
		case <-killed:
			extra++
		default:
		}
		for i := 0; i < crashWindow; i++ {
			k := (seq + uint64(i)) % crashKeys
			s := seq + uint64(i)
			if err := cc.c.WriteRequest(&wire.Request{Op: wire.OpPut, Key: k, Vals: crashRow(k, s)}); err != nil {
				t.Fatalf("leader write with dead follower: %v", err)
			}
			cc.issued = append(cc.issued, crashOp{key: k, seq: s})
			cc.maxIssued[k] = s
		}
		seq += crashWindow
		if err := cc.c.Flush(); err != nil {
			t.Fatalf("leader flush with dead follower: %v", err)
		}
		if err := cc.drainWindow(); err != nil {
			dumpLog(t, lead)
			t.Fatalf("leader died while follower was down: %v", err)
		}
	}
	f1.cmd.Wait()
	if !cc.ackedAny {
		t.Fatal("nothing acked; harness too slow")
	}

	// Restart the follower on its own WAL directory: it must recover the
	// locally persisted prefix from disk and resume the stream from its
	// durable cursor rather than refetching all of history.
	f2 := startOrdod(t, walDirF, "fkill-fol-b", "-follow", replAddr)
	defer func() {
		f2.cmd.Process.Kill()
		f2.cmd.Wait()
	}()
	waitConverge(t, f2.addr, "restarted follower", cc)

	// Local-disk resume, not a refetch: the restart recovered records from
	// its own WAL, and the boot log shows a nonzero stream cursor.
	nc2, err := net.Dial("tcp", f2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	c2 := wire.NewConn(nc2)
	nc2.SetReadDeadline(time.Now().Add(10 * time.Second))
	r, err := c2.Do(&wire.Request{Op: wire.OpStats})
	if err != nil || r.Stats == nil {
		t.Fatalf("follower stats after restart: %v", err)
	}
	if r.Stats.Value("ordod_recovered_records") == 0 {
		t.Fatal("restarted follower recovered zero records from its local WAL")
	}
	b, err := os.ReadFile(f2.log)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "following ") {
		t.Fatalf("follower boot log missing cursor line:\n%s", b)
	}
	if strings.Contains(string(b), "from cursor (0, 0)") {
		t.Fatalf("restarted follower resumed from (0, 0) — cursor not persisted:\n%s", b)
	}
}

// TestFailoverFollowerRejoinsNewerRegime restarts a follower into a
// regime that began while it was down. Its cursor is in the old leader's
// coordinates, and here those coordinates are valid-looking ones in the
// new leader's log too: node0 (the first leader) streams as incarnation 2
// because its directory was opened once before, and node1 (the next
// leader) writes incarnation 2 because it restarted once. Resuming from
// that cursor skips records of the new leader; the follower must
// resubscribe from the origin and converge.
func TestFailoverFollowerRejoinsNewerRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess failover harness skipped in -short")
	}
	const n = 3
	var clientAddrs [n]string
	var peers []string
	for i := 0; i < n; i++ {
		clientAddrs[i] = reservePort(t)
		peers = append(peers, reservePort(t)+"@"+clientAddrs[i])
	}
	peerList := strings.Join(peers, ",")
	walDirs := [n]string{t.TempDir(), t.TempDir(), t.TempDir()}
	var procs [n]*ordodProc
	defer func() {
		for _, p := range procs {
			if p != nil {
				p.cmd.Process.Kill()
				p.cmd.Wait()
			}
		}
	}()
	start := func(i int, tag string) {
		procs[i] = startOrdod(t, walDirs[i], fmt.Sprintf("rejoin-node%d-%s", i, tag),
			"-addr", clientAddrs[i], "-failover", "-peers", peerList,
			"-peer-index", fmt.Sprint(i), "-heartbeat-timeout", "500ms")
	}
	stop := func(i int, sig syscall.Signal) {
		procs[i].cmd.Process.Signal(sig)
		procs[i].cmd.Wait()
	}
	role := func(i int, who string, code uint64, epoch uint64) {
		failoverStats(t, clientAddrs[i], who, bootTimeout, func(s *wire.Stats) bool {
			return s.ReplRoleCode == code && s.Value("ordod_epoch") >= epoch
		})
	}
	insert := func(i int, from, to uint64) {
		nc, err := net.Dial("tcp", clientAddrs[i])
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		c := wire.NewConn(nc)
		for k := from; k < to; k++ {
			nc.SetDeadline(time.Now().Add(10 * time.Second))
			if r, err := c.Do(&wire.Request{Op: wire.OpInsert, Key: k, Vals: crashRow(k, 0)}); err != nil || r.Status != wire.StatusOK {
				dumpLog(t, procs[i])
				t.Fatalf("insert %d on node%d: %v %v", k, i, r, err)
			}
		}
	}
	const keys = 512
	converge := func(lead, i int, who string) {
		want, err := loadgen.Sweep(clientAddrs[lead], keys, crashWindow, 10*time.Second, 10*time.Second)
		if err != nil {
			t.Fatalf("sweep node%d: %v", lead, err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			got, err := loadgen.Sweep(clientAddrs[i], keys, crashWindow, 10*time.Second, 10*time.Second)
			if err == nil && got == want {
				return
			}
			if time.Now().After(deadline) {
				dumpLog(t, procs[i])
				t.Fatalf("%s diverged: %+v, want %+v (err %v)", who, got, want, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	// node0's directory already holds incarnation 1.
	pre := startOrdod(t, walDirs[0], "rejoin-node0-pre")
	pre.cmd.Process.Signal(syscall.SIGTERM)
	if err := pre.cmd.Wait(); err != nil {
		dumpLog(t, pre)
		t.Fatalf("pre-opening node0's directory: %v", err)
	}
	for i := 0; i < n; i++ {
		start(i, "a")
	}
	role(0, "cold leader", 1, 1)
	insert(0, 0, 128)
	converge(0, 1, "node1")
	converge(0, 2, "node2")

	// node1 restarts: its next records are incarnation 2 of its own log.
	stop(1, syscall.SIGTERM)
	start(1, "b")
	role(1, "restarted node1", 2, 1)
	insert(0, 128, 256)
	converge(0, 1, "restarted node1")
	converge(0, 2, "node2")

	// node2, then the leader, die; node1 takes over and writes on.
	stop(2, syscall.SIGKILL)
	stop(0, syscall.SIGKILL)
	role(1, "promoted node1", 1, 2)
	insert(1, 256, keys)

	start(2, "b")
	role(2, "rejoined node2", 2, 2)
	converge(1, 2, "rejoined node2")
}
