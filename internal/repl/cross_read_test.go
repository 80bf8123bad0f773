package repl_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ordo/internal/db"
	"ordo/internal/repl"
	"ordo/internal/server"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// Follower cross-lane read run shape: a bank of accounts on a two-lane
// leader, one writer moving money between them with atomic two-PUT TXNs,
// and readers summing the whole bank on a two-lane follower while the
// transfers replicate.
const (
	frAccounts  = 8
	frBalance   = 100
	frTransfers = 1500
	frReaders   = 2
)

// TestFollowerCrossLaneReadIsAtomic pins that a follower's cross-lane
// read-only TXN is one consistent cut even though the follower's writer —
// the replication apply loop — commits straight into the engine and never
// passes through a lane or publishes on its boards. Every merged read must
// see the conserved total; one that lands between the per-lane slices of
// an optimistic read would see half a transfer.
func TestFollowerCrossLaneReadIsAtomic(t *testing.T) {
	newEngine := func() db.DB {
		engine, err := db.New(db.OCC, testSchema, nil)
		if err != nil {
			t.Fatal(err)
		}
		return engine
	}

	// Leader: two lanes, durable, streaming to subscribers.
	lDir := t.TempDir()
	lDev, err := wal.OpenFile(lDir, wal.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lLog := wal.New(lDev, nil)
	lState := server.NewReplState(server.RoleLeader, 0, 0, 0)
	src, err := repl.NewSource(repl.SourceConfig{
		Dir: lDir, Log: lLog, Incarnation: lDev.Incarnation(), State: lState,
		WatermarkEvery: 20 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	leader, err := server.New(server.Config{
		DB: newEngine(), Schema: testSchema, Shards: 2, WAL: lLog, Repl: lState, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	lLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lServe, lRepl := make(chan error, 1), make(chan error, 1)
	go func() { lServe <- leader.Serve(lLn) }()
	go func() { lRepl <- src.Serve(replLn) }()
	defer func() {
		shutdown(t, leader, lServe)
		src.Close()
		<-lRepl
		if err := lDev.Close(); err != nil {
			t.Error(err)
		}
	}()

	// Follower: two lanes, read-only, applying the leader's stream.
	fDir := t.TempDir()
	fDev, err := wal.OpenFile(fDir, wal.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fEngine := newEngine()
	fState := server.NewReplState(server.RoleFollower, 0, time.Second, 1<<20)
	fRec, err := repl.OpenRegime(fDir)
	if err != nil {
		t.Fatal(err)
	}
	defer fRec.Close()
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Addr: replLn.Addr().String(), DB: fEngine, Log: wal.New(fDev, nil), State: fState,
		Regime: fRec, RetryEvery: 20 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	follower, err := server.New(server.Config{
		DB: fEngine, Schema: testSchema, Shards: 2, ReadOnly: true, Repl: fState, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	fLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	fRun, fServe := make(chan struct{}), make(chan error, 1)
	go func() {
		defer close(fRun)
		fol.Run(ctx)
	}()
	go func() { fServe <- follower.Serve(fLn) }()
	defer func() {
		cancel()
		<-fRun
		shutdown(t, follower, fServe)
		if err := fDev.Close(); err != nil {
			t.Error(err)
		}
	}()

	dial := func(addr string) *wire.Conn {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		return wire.NewConn(nc)
	}

	// Open the bank in one TXN, so the follower holds all of it or none.
	lc := dial(lLn.Addr().String())
	open := &wire.Request{Op: wire.OpTxn}
	for k := uint64(0); k < frAccounts; k++ {
		open.Ops = append(open.Ops, wire.Request{Op: wire.OpInsert, Key: k, Vals: []uint64{frBalance, 0}})
	}
	if r, err := lc.Do(open); err != nil || r.Status != wire.StatusOK {
		t.Fatalf("opening the bank: %v %v", r.Status, err)
	}

	var (
		stop    atomic.Bool
		okReads atomic.Uint64
		wg      sync.WaitGroup
		errs    = make(chan error, frReaders)
	)
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for r := 0; r < frReaders; r++ {
		fc := dial(fLn.Addr().String())
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- frSweep(fc, &stop, &okReads)
		}()
	}

	// The single writer's cache is authoritative: every TXN's outcome is
	// known on a connection that never breaks.
	bal := make([]uint64, frAccounts)
	for i := range bal {
		bal[i] = frBalance
	}
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for done := 0; done < frTransfers; {
		a, b := int(next()%frAccounts), int(next()%frAccounts)
		if a == b || bal[a] < 10 {
			continue
		}
		amt := next()%10 + 1
		r, err := lc.Do(&wire.Request{Op: wire.OpTxn, Ops: []wire.Request{
			{Op: wire.OpPut, Key: uint64(a), Vals: []uint64{bal[a] - amt, 0}},
			{Op: wire.OpPut, Key: uint64(b), Vals: []uint64{bal[b] + amt, 0}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		switch r.Status {
		case wire.StatusOK:
			bal[a] -= amt
			bal[b] += amt
			done++
		case wire.StatusConflict, wire.StatusBusy:
		default:
			t.Fatalf("transfer answered %v", r.Status)
		}
	}
	// Let the tail of the stream apply under the readers too.
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if okReads.Load() == 0 {
		t.Fatal("no follower read ever saw the bank — the invariant was never checked")
	}
	if lt, fr := series(leader, "ordod_cross_shard_txns_total"), series(follower, "ordod_cross_shard_reads_total"); lt == 0 || fr == 0 {
		t.Fatalf("leader cross_shard_txns=%d, follower cross_shard_reads=%d: nothing crossed lanes", lt, fr)
	}
	t.Logf("follower ok_reads=%d", okReads.Load())
}

// shutdown drains srv and waits for its Serve to return.
func shutdown(t *testing.T, srv *server.Server, served chan error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	<-served
}

// frSweep reads the whole bank on the follower with one cross-lane
// read-only TXN per pass until stop, and checks conservation on every read
// that found the bank.
func frSweep(c *wire.Conn, stop *atomic.Bool, okReads *atomic.Uint64) error {
	txn := &wire.Request{Op: wire.OpTxn}
	for k := uint64(0); k < frAccounts; k++ {
		txn.Ops = append(txn.Ops, wire.Request{Op: wire.OpGet, Key: k})
	}
	for !stop.Load() {
		r, err := c.Do(txn)
		if err != nil {
			return err
		}
		switch r.Status {
		case wire.StatusOK:
		case wire.StatusConflict, wire.StatusBusy, wire.StatusNotYet:
			continue
		default:
			return fmt.Errorf("follower read answered %v", r.Status)
		}
		var sum uint64
		found := 0
		for _, sub := range r.Batch {
			if sub.Status == wire.StatusOK {
				sum += sub.Row[0]
				found++
			}
		}
		if found == 0 {
			continue // the bank has not replicated yet
		}
		if found != frAccounts || sum != frAccounts*frBalance {
			return fmt.Errorf("torn read on the follower: %d of %d accounts, sum %d, want %d",
				found, frAccounts, sum, frAccounts*frBalance)
		}
		okReads.Add(1)
	}
	return nil
}

// series reads one catalogue series of srv, 0 when it is not registered.
func series(srv *server.Server, name string) uint64 {
	for _, smp := range srv.Catalogue() {
		if smp.Series == name {
			return smp.Value
		}
	}
	return 0
}
