package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ordo/internal/wire"
)

// TestReplAckBoundWithoutFailover boots a plain replication leader (no
// -failover) with -repl-ack-bound and requires its writes to ack OK well
// inside the bound: first with no follower subscribed (the source waives
// the gate with its own flushed tail), then with a follower attached (its
// durable acks release the gate). A leader whose source never feeds the
// gate answers every write UNCERTAIN after the full bound.
func TestReplAckBoundWithoutFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess replication harness skipped in -short")
	}
	const bound = 6 * time.Second
	raf := filepath.Join(t.TempDir(), "repl-addr")
	lead := startOrdod(t, t.TempDir(), "ackbound-lead",
		"-repl-addr", "127.0.0.1:0", "-repl-addr-file", raf, "-repl-ack-bound", bound.String())
	defer func() {
		lead.cmd.Process.Signal(syscall.SIGTERM)
		lead.cmd.Wait()
	}()
	b, err := os.ReadFile(raf)
	if err != nil || len(b) == 0 {
		dumpLog(t, lead)
		t.Fatalf("leader wrote no replication address: %v", err)
	}

	nc, err := net.Dial("tcp", lead.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	write := func(phase string, key uint64) {
		t.Helper()
		start := time.Now()
		nc.SetDeadline(start.Add(2 * bound))
		r, err := c.Do(&wire.Request{Op: wire.OpInsert, Key: key, Vals: crashRow(key, 0)})
		if took := time.Since(start); err != nil || r.Status != wire.StatusOK || took > bound/3 {
			dumpLog(t, lead)
			t.Fatalf("%s: insert %d answered %v (err %v) after %v, want OK well inside the %v bound",
				phase, key, r.Status, err, took, bound)
		}
	}
	write("no follower", 1)

	fol := startOrdod(t, t.TempDir(), "ackbound-fol", "-follow", strings.TrimSpace(string(b)))
	defer func() {
		fol.cmd.Process.Signal(syscall.SIGTERM)
		fol.cmd.Wait()
	}()
	failoverStats(t, lead.addr, "leader", 15*time.Second, func(s *wire.Stats) bool { return s.ReplFollowers == 1 })
	write("follower attached", 2)
}
