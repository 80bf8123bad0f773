package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ordo/internal/core"
	"ordo/internal/db"
	"ordo/internal/faultnet"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// Cross-shard linearizability run shape: a bank of accounts hashed across 4
// lanes, writers moving money with atomic multi-key TXNs, readers sweeping
// account sets with cmp_time-merged cross-shard reads. The invariant is the
// stm-bank one lifted to the wire path: total money is conserved, and no
// merged read may ever observe a transfer half-applied.
const (
	xsLanes     = 4
	xsWriters   = 4
	xsAccounts  = 8 // per writer; disjoint ranges keep each writer's cache authoritative
	xsBalance   = 100
	xsTransfers = 150
	xsHang      = 15 * time.Second
)

func xsFaults() faultnet.Config {
	return faultnet.Config{
		Seed: chaosSeed(),
		// Gentler than the chaos run: resets cost a cache resync round-trip
		// per writer, so keep them rare enough that transfers dominate.
		LatencyProb: 0.15, MaxLatency: time.Millisecond,
		StallProb: 0.005, Stall: 200 * time.Millisecond,
		PartialProb: 0.15, ChunkDelay: time.Millisecond,
		ResetProb: 0.004,
	}
}

// TestCrossShardTxnLinearizability drives concurrent transfers across lanes
// through faultnet and asserts, from three vantage points, that the
// cross-shard coordination never tears a transfer: live merged reads see a
// conserved total, the drained engine holds the exact cache state of every
// writer, and a recovery replay of the drained WAL reproduces the same
// conserved total (the one-coordinator-record guarantee).
func TestCrossShardTxnLinearizability(t *testing.T) {
	defer requireNoGoroutineLeak(t)()
	ordo := core.New(core.Hardware, 1000)
	schema := db.Schema{Tables: []db.TableDef{{Name: "acct", Cols: 1}}}
	engine, err := db.New(db.OCCOrdo, schema, ordo)
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	dev, err := wal.OpenFile(walDir, wal.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		DB:           engine,
		Schema:       schema,
		Shards:       xsLanes,
		Ordo:         ordo,
		MaxBatch:     16,
		QueueDepth:   64,
		IdleTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		WAL:          wal.New(dev, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	cleanLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rawLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faultLn := faultnet.Wrap(rawLn, xsFaults())
	serveDone := make(chan error, 2)
	go func() { serveDone <- srv.Serve(cleanLn) }()
	go func() { serveDone <- srv.Serve(faultLn) }()
	cleanAddr, faultAddr := cleanLn.Addr().String(), rawLn.Addr().String()

	// Preload every account with its opening balance through the clean
	// listener.
	func() {
		nc, err := net.Dial("tcp", cleanAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		c := wire.NewConn(nc)
		for k := uint64(0); k < xsWriters*xsAccounts; k++ {
			resp, err := c.Do(&wire.Request{Op: wire.OpInsert, Key: k, Vals: []uint64{xsBalance}})
			if err != nil || resp.Status != wire.StatusOK {
				t.Fatalf("preload key %d: %+v, %v", k, resp, err)
			}
		}
	}()

	var (
		writersWg   sync.WaitGroup
		readersWg   sync.WaitGroup
		stopReaders atomic.Bool
		okReads     atomic.Uint64
		errs        = make(chan error, xsWriters+2)
		finals      = make([][]uint64, xsWriters)
	)
	for w := 0; w < xsWriters; w++ {
		writersWg.Add(1)
		go func(w int) {
			defer writersWg.Done()
			bal, err := xsWriter(w, srv, faultAddr, cleanAddr)
			finals[w] = bal
			if err != nil {
				errs <- fmt.Errorf("writer %d: %w", w, err)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readersWg.Add(1)
		go func(r int) {
			defer readersWg.Done()
			if err := xsReader(r, faultAddr, &stopReaders, &okReads); err != nil {
				errs <- fmt.Errorf("reader %d: %w", r, err)
			}
		}(r)
	}
	writersWg.Wait()
	stopReaders.Store(true)
	readersWg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if okReads.Load() == 0 {
		t.Fatal("no merged cross-shard read ever succeeded — the invariant was never checked")
	}

	// Final sweep through the clean listener: one cross-shard read-only TXN
	// over the whole bank must see exactly the conserved total, and each
	// account must hold exactly what its single writer's cache says.
	nc, err := net.Dial("tcp", cleanAddr)
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	ops := make([]wire.Request, xsWriters*xsAccounts)
	for k := range ops {
		ops[k] = wire.Request{Op: wire.OpGet, Key: uint64(k)}
	}
	var total uint64
	for {
		resp, err := c.Do(&wire.Request{Op: wire.OpTxn, Ops: ops})
		if err != nil {
			t.Fatalf("final sweep: %v", err)
		}
		if resp.Status == wire.StatusNotYet || resp.Status == wire.StatusConflict {
			continue
		}
		if resp.Status != wire.StatusOK || len(resp.Batch) != len(ops) {
			t.Fatalf("final sweep answered %v with %d rows", resp.Status, len(resp.Batch))
		}
		for k, sub := range resp.Batch {
			if sub.Status != wire.StatusOK || len(sub.Row) != 1 {
				t.Fatalf("final sweep key %d: %+v", k, sub)
			}
			w, a := k/xsAccounts, k%xsAccounts
			if finals[w] != nil && sub.Row[0] != finals[w][a] {
				t.Fatalf("account %d holds %d, writer %d cache says %d", k, sub.Row[0], w, finals[w][a])
			}
			total += sub.Row[0]
		}
		break
	}
	nc.Close()
	if want := uint64(xsWriters * xsAccounts * xsBalance); total != want {
		t.Fatalf("total money %d, want %d — a transfer tore", total, want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-serveDone; err != nil {
			t.Fatalf("serve: %v", err)
		}
	}
	snap := counters(srv)
	if snap["ordod_panics_total"] != 0 {
		t.Fatalf("panics: %d", snap["ordod_panics_total"])
	}
	if snap["ordod_cross_shard_txns_total"] == 0 {
		t.Fatal("no transfer ever crossed lanes — the test exercised nothing")
	}
	if snap["ordod_cross_shard_reads_total"] == 0 {
		t.Fatal("no read was ever merged across lanes")
	}
	t.Logf("cross-shard: txns=%d cross_txns=%d cross_reads=%d retries=%d not_yet=%d ok_reads=%d",
		snap[`ordod_ops_total{op="txn"}`], snap["ordod_cross_shard_txns_total"], snap["ordod_cross_shard_reads_total"], snap["ordod_cross_shard_retries_total"], snap["ordod_cross_shard_not_yet_total"], okReads.Load())

	// Crash-recovery vantage point: replay the drained log into a fresh
	// engine. Every transfer logged exactly one coordinator record, so the
	// recovered bank must hold the same conserved total — a torn replay
	// (half a transfer) would break it.
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.Recover(walDir)
	if err != nil {
		t.Fatal(err)
	}
	engine2, err := db.New(db.OCCOrdo, schema, ordo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(engine2, recs); err != nil {
		t.Fatal(err)
	}
	sess := engine2.NewSession()
	var recovered uint64
	err = db.RunWithRetry(sess, 3, func(tx db.Tx) error {
		recovered = 0
		for k := uint64(0); k < xsWriters*xsAccounts; k++ {
			vals, err := tx.Read(0, k)
			if err != nil {
				return err
			}
			recovered += vals[0]
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reading recovered bank: %v", err)
	}
	if want := uint64(xsWriters * xsAccounts * xsBalance); recovered != want {
		t.Fatalf("recovered total %d, want %d — recovery tore a transfer", recovered, want)
	}
}

// xsWriter moves money between its own disjoint account range with atomic
// two-PUT TXNs. Being each account's only writer, its local balance cache is
// authoritative whenever its last TXN's outcome is known; after a connection
// death mid-TXN the outcome is unknown, so once the server has torn the
// dead connection down (xsSettled) it resyncs the cache from the server
// before continuing. Returns the final cache for the drained check.
func xsWriter(w int, srv *Server, faultAddr, cleanAddr string) ([]uint64, error) {
	base := uint64(w * xsAccounts)
	bal := make([]uint64, xsAccounts)
	for i := range bal {
		bal[i] = xsBalance
	}
	rng := uint64(w)*0x9e3779b97f4a7c15 + 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}

	resync := func() error {
		nc, err := net.Dial("tcp", cleanAddr)
		if err != nil {
			return err
		}
		defer nc.Close()
		c := wire.NewConn(nc)
		ops := make([]wire.Request, xsAccounts)
		for i := range ops {
			ops[i] = wire.Request{Op: wire.OpGet, Key: base + uint64(i)}
		}
		for {
			nc.SetReadDeadline(time.Now().Add(xsHang))
			resp, err := c.Do(&wire.Request{Op: wire.OpTxn, Ops: ops})
			if err != nil {
				return err
			}
			switch resp.Status {
			case wire.StatusOK:
				for i, sub := range resp.Batch {
					if sub.Status != wire.StatusOK || len(sub.Row) != 1 {
						return fmt.Errorf("resync key %d: %+v", base+uint64(i), sub)
					}
					bal[i] = sub.Row[0]
				}
				return nil
			case wire.StatusNotYet, wire.StatusConflict, wire.StatusBusy:
				continue
			default:
				return fmt.Errorf("resync answered %v", resp.Status)
			}
		}
	}

	done := 0
	var nc net.Conn
	var c *wire.Conn
	defer func() {
		if nc != nil {
			nc.Close()
		}
	}()
	// reconnect drops a connection whose last TXN has an unknown outcome
	// and resyncs the cache once that outcome is settled.
	reconnect := func() error {
		local := nc.LocalAddr().String()
		nc.Close()
		nc, c = nil, nil
		if err := xsSettled(srv, local); err != nil {
			return err
		}
		return resync()
	}
	for done < xsTransfers {
		if c == nil {
			var err error
			nc, err = net.Dial("tcp", faultAddr)
			if err != nil {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			c = wire.NewConn(nc)
		}
		a, b := int(next()%xsAccounts), int(next()%xsAccounts)
		if a == b || bal[a] < 10 {
			continue
		}
		amt := next()%10 + 1
		req := wire.Request{Op: wire.OpTxn, Ops: []wire.Request{
			{Op: wire.OpPut, Key: base + uint64(a), Vals: []uint64{bal[a] - amt}},
			{Op: wire.OpPut, Key: base + uint64(b), Vals: []uint64{bal[b] + amt}},
		}}
		nc.SetReadDeadline(time.Now().Add(xsHang))
		resp, err := c.Do(&req)
		if err != nil {
			// Connection died with a TXN possibly in flight: its atomicity
			// is the server's problem, our cache coherence is ours.
			if rerr := reconnect(); rerr != nil {
				return bal, rerr
			}
			continue
		}
		switch resp.Status {
		case wire.StatusOK:
			bal[a] -= amt
			bal[b] += amt
			done++
		case wire.StatusConflict, wire.StatusBusy:
			// Not applied; cache stands.
		case wire.StatusErr:
			// Terminal stream (an injected reset chopped a frame mid-write):
			// the TXN may or may not have applied — resync like a death.
			if rerr := reconnect(); rerr != nil {
				return bal, rerr
			}
		default:
			return bal, fmt.Errorf("transfer answered %v", resp.Status)
		}
	}
	return bal, nil
}

// xsSettled waits until srv has torn down the connection whose client end
// is at local. Its worker has then finished every request it read, so a
// TXN in flight when the connection died has either committed or never
// will. Nothing sooner is promised: a request that was never answered may
// take effect at any point until its connection is gone, even after the
// client has reconnected and read.
func xsSettled(srv *Server, local string) error {
	for deadline := time.Now().Add(xsHang); ; time.Sleep(time.Millisecond) {
		live := false
		srv.mu.Lock()
		for sc := range srv.conns {
			if sc.nc.RemoteAddr().String() == local {
				live = true
				break
			}
		}
		srv.mu.Unlock()
		if !live {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server still holds connection %s after %v", local, xsHang)
		}
	}
}

// xsReader sweeps one writer's whole account range per pass with a
// cross-shard read-only TXN and asserts conservation on every OK merge — the
// torn-transfer detector. NOT_YET and CONFLICT are legitimate answers
// (retry); connection deaths reconnect.
func xsReader(r int, faultAddr string, stop *atomic.Bool, okReads *atomic.Uint64) error {
	rng := uint64(r)*0x517cc1b727220a95 + 99
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var nc net.Conn
	var c *wire.Conn
	defer func() {
		if nc != nil {
			nc.Close()
		}
	}()
	for !stop.Load() {
		if c == nil {
			var err error
			nc, err = net.Dial("tcp", faultAddr)
			if err != nil {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			c = wire.NewConn(nc)
		}
		w := next() % xsWriters
		ops := make([]wire.Request, xsAccounts)
		for i := range ops {
			ops[i] = wire.Request{Op: wire.OpGet, Key: w*xsAccounts + uint64(i)}
		}
		nc.SetReadDeadline(time.Now().Add(xsHang))
		resp, err := c.Do(&wire.Request{Op: wire.OpTxn, Ops: ops})
		if err != nil {
			nc.Close()
			nc, c = nil, nil
			continue
		}
		switch resp.Status {
		case wire.StatusOK:
			var sum uint64
			for i, sub := range resp.Batch {
				if sub.Status != wire.StatusOK || len(sub.Row) != 1 {
					return fmt.Errorf("sweep of writer %d key %d: %+v", w, i, sub)
				}
				sum += sub.Row[0]
			}
			if sum != xsAccounts*xsBalance {
				return fmt.Errorf("torn transfer observed: writer %d accounts sum to %d, want %d",
					w, sum, xsAccounts*xsBalance)
			}
			okReads.Add(1)
		case wire.StatusNotYet, wire.StatusConflict, wire.StatusBusy:
			// Honest refusals under uncertainty or contention.
		case wire.StatusErr:
			nc.Close()
			nc, c = nil, nil
		default:
			return fmt.Errorf("sweep answered %v", resp.Status)
		}
	}
	return nil
}

// TestCrossShardReadFirstPass pins that reads never move the publication
// boards: on an idle two-lane server, a read-only TXN spanning both lanes
// must find V1 == V2 on its first optimistic pass — no retry, and no Hold
// parking either lane. A lane that published the commit timestamp of its
// own read slice would fail every pass and fall back to the barrier.
func TestCrossShardReadFirstPass(t *testing.T) {
	cfg := newYCSBServer(t, db.OCC)
	cfg.Shards = 2
	ts, cleanup := startServer(t, cfg)
	defer cleanup()
	c := ts.c

	var keys [2]uint64
	for k := uint64(1); keys[1] == 0; k++ {
		if ln := ts.srv.lanes.Route(k); keys[ln] == 0 {
			keys[ln] = k
		}
	}
	txn := &wire.Request{Op: wire.OpTxn}
	for _, k := range keys {
		if r, err := c.Do(&wire.Request{Op: wire.OpInsert, Key: k, Vals: row(int(k))}); err != nil || r.Status != wire.StatusOK {
			t.Fatalf("insert %d: %v %v", k, r.Status, err)
		}
		txn.Ops = append(txn.Ops, wire.Request{Op: wire.OpGet, Key: k})
	}
	for i := 0; i < 3; i++ {
		r, err := c.Do(txn)
		if err != nil || r.Status != wire.StatusOK || len(r.Batch) != 2 {
			t.Fatalf("cross-lane read %d: %+v %v", i, r, err)
		}
		for j, k := range keys {
			if r.Batch[j].Status != wire.StatusOK || r.Batch[j].Row[0] != k {
				t.Fatalf("cross-lane read %d op %d: %+v, want key %d's row", i, j, r.Batch[j], k)
			}
		}
	}
	snap := counters(ts.srv)
	if snap["ordod_cross_shard_reads_total"] != 3 || snap["ordod_cross_shard_retries_total"] != 0 || snap["ordod_cross_shard_not_yet_total"] != 0 {
		t.Fatalf("cross_shard_reads=%d retries=%d not_yet=%d, want 3 reads served on the first pass",
			snap["ordod_cross_shard_reads_total"], snap["ordod_cross_shard_retries_total"], snap["ordod_cross_shard_not_yet_total"])
	}
	for ln := 0; ln < ts.srv.lanes.N(); ln++ {
		if h := ts.srv.lanes.Lane(ln).Holds(); h != 0 {
			t.Fatalf("lane %d served %d holds, want 0", ln, h)
		}
	}
}
