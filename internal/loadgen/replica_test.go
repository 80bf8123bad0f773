package loadgen

import (
	"context"
	"net"
	"testing"
	"time"

	"ordo/internal/db"
	"ordo/internal/db/ycsb"
	"ordo/internal/repl"
	"ordo/internal/server"
	"ordo/internal/wal"
)

// startReplPair boots an in-process durable leader and a tailing read-only
// follower over the YCSB schema, returning their serving addresses. Both
// are torn down via t.Cleanup in reverse order.
func startReplPair(t *testing.T) (leaderAddr, followerAddr string) {
	t.Helper()
	ldir, fdir := t.TempDir(), t.TempDir()

	lEngine, err := db.New(db.OCC, ycsb.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ldev, err := wal.OpenFile(ldir, wal.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	llog := wal.New(ldev, nil)
	lstate := server.NewReplState(server.RoleLeader, 0, 0, 0)
	src, err := repl.NewSource(repl.SourceConfig{
		Dir:            ldir,
		Log:            llog,
		Incarnation:    ldev.Incarnation(),
		State:          lstate,
		WatermarkEvery: 10 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	lsrv, err := server.New(server.Config{DB: lEngine, Schema: ycsb.Schema(), WAL: llog, Repl: lstate, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	lln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lServeDone := make(chan error, 1)
	replDone := make(chan error, 1)
	go func() { lServeDone <- lsrv.Serve(lln) }()
	go func() { replDone <- src.Serve(replLn) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := lsrv.Shutdown(ctx); err != nil {
			t.Errorf("leader shutdown: %v", err)
		}
		<-lServeDone
		src.Close()
		<-replDone
		ldev.Close()
	})

	fEngine, err := db.New(db.OCC, ycsb.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fdev, err := wal.OpenFile(fdir, wal.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	flog := wal.New(fdev, nil)
	fstate := server.NewReplState(server.RoleFollower, 0, time.Second, 1<<20)
	frec, err := repl.OpenRegime(fdir)
	if err != nil {
		t.Fatal(err)
	}
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Addr:       replLn.Addr().String(),
		DB:         fEngine,
		Log:        flog,
		State:      fstate,
		Regime:     frec,
		RetryEvery: 20 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	fsrv, err := server.New(server.Config{DB: fEngine, Schema: ycsb.Schema(), ReadOnly: true, Repl: fstate, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fctx, fcancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	fServeDone := make(chan error, 1)
	go func() {
		defer close(runDone)
		fol.Run(fctx)
	}()
	go func() { fServeDone <- fsrv.Serve(fln) }()
	t.Cleanup(func() {
		fcancel()
		<-runDone
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := fsrv.Shutdown(ctx); err != nil {
			t.Errorf("follower shutdown: %v", err)
		}
		<-fServeDone
		fdev.Close()
		frec.Close()
	})

	return lln.Addr().String(), fln.Addr().String()
}

// TestRunWithReplicaProbe drives a timed run with a follower prober
// attached: the prober must complete rounds, observe zero staleness
// violations, and record visibility latencies — and a key-range sweep of
// leader and follower must converge to the same digest.
func TestRunWithReplicaProbe(t *testing.T) {
	leaderAddr, followerAddr := startReplPair(t)

	const records = 128
	res, err := Run(Config{
		Addr:      leaderAddr,
		Conns:     2,
		Window:    8,
		Seconds:   0.4,
		Records:   records,
		Reads:     0.5,
		Seed:      1,
		DialFor:   5 * time.Second,
		OpTimeout: 10 * time.Second,
		Replicas:  []string{followerAddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Replicas) != 1 {
		t.Fatalf("replica tallies: %d, want 1", len(res.Replicas))
	}
	rp := &res.Replicas[0]
	if rp.Addr != followerAddr {
		t.Fatalf("replica addr %q, want %q", rp.Addr, followerAddr)
	}
	if rp.Probes == 0 {
		t.Fatal("prober completed zero rounds over a 400ms run")
	}
	if rp.Stale != 0 {
		t.Fatalf("%d read-your-writes violations", rp.Stale)
	}
	if rp.Visibility.Count() != rp.Probes {
		t.Fatalf("visibility samples %d != probes %d", rp.Visibility.Count(), rp.Probes)
	}

	// Sweep both sides: the follower must converge to the leader's digest.
	lead, err := Sweep(leaderAddr, records, 16, 5*time.Second, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if lead.Found != records {
		t.Fatalf("leader sweep found %d of %d preloaded keys", lead.Found, records)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		got, err := Sweep(followerAddr, records, 16, 5*time.Second, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got == lead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower sweep %+v never converged to leader %+v", got, lead)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSweepRejectsBadConfig pins the sweep parameter guard.
func TestSweepRejectsBadConfig(t *testing.T) {
	if _, err := Sweep("127.0.0.1:1", 0, 1, time.Millisecond, time.Second); err == nil {
		t.Fatal("zero records accepted")
	}
}
