package server

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"ordo/internal/db"
	"ordo/internal/wire"
)

// TestIdleEviction: a client that goes quiet past IdleTimeout is evicted —
// its answered work already flushed, the connection closed, the eviction
// counted — without being mistaken for a protocol error.
func TestIdleEviction(t *testing.T) {
	defer requireNoGoroutineLeak(t)()
	f := &fakeDB{}
	srv, ln, serveDone := startRawServer(t, Config{DB: f, IdleTimeout: 100 * time.Millisecond})

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	resp, err := c.Do(&wire.Request{Op: wire.OpGet, Key: 4})
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("live op before idling: %+v, %v", resp, err)
	}

	// Go quiet: the server must close the connection, not park a goroutine
	// pair on it forever.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.ReadResponse(); !errors.Is(err, io.EOF) {
		t.Fatalf("idle connection should see EOF, got %v", err)
	}
	snap := counters(srv)
	if snap["ordod_evictions_total"] != 1 {
		t.Fatalf("evictions=%d, want 1", snap["ordod_evictions_total"])
	}
	if snap["ordod_protocol_errors_total"] != 0 {
		t.Fatalf("idle eviction miscounted as protocol error: protoErrs=%d", snap["ordod_protocol_errors_total"])
	}
	waitFor(t, "connection teardown", func() bool { return counters(srv)["ordod_conns_active"] == 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestWriteStallEviction: a client that stops reading while responses pile
// up must be evicted by the write deadline instead of wedging its worker
// (and engine session) on a full send buffer.
func TestWriteStallEviction(t *testing.T) {
	defer requireNoGoroutineLeak(t)()
	f := &fakeDB{rowWidth: 4095} // ~4KB per GET response
	srv, ln, serveDone := startRawServer(t, Config{
		DB:           f,
		WriteTimeout: 200 * time.Millisecond,
		QueueDepth:   4096,
	})

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	// Pump GETs and never read a byte back: response bytes fill the
	// kernel buffers until the worker's flush blocks.
	writeErr := make(chan error, 1)
	go func() {
		for i := 0; i < 4000; i++ {
			if err := c.WriteRequest(&wire.Request{Op: wire.OpGet, Key: uint64(i)}); err != nil {
				writeErr <- err
				return
			}
			if i%64 == 0 {
				if err := c.Flush(); err != nil {
					writeErr <- err
					return
				}
			}
		}
		writeErr <- c.Flush()
	}()

	waitFor(t, "write-stall eviction", func() bool { return counters(srv)["ordod_evictions_total"] >= 1 })
	waitFor(t, "connection teardown", func() bool { return counters(srv)["ordod_conns_active"] == 0 })
	<-writeErr // client writer exited (error once the server closed, or done)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestPanicContainment: a request that panics the engine answers ERR, kills
// only its own connection, and leaves the server serving other clients.
func TestPanicContainment(t *testing.T) {
	defer requireNoGoroutineLeak(t)()
	f := &fakeDB{panicKey: 13, panicArmed: true}
	srv, ln, serveDone := startRawServer(t, Config{DB: f})

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	resp, err := c.Do(&wire.Request{Op: wire.OpGet, Key: 1})
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("healthy op: %+v, %v", resp, err)
	}
	resp, err = c.Do(&wire.Request{Op: wire.OpGet, Key: 13})
	if err != nil {
		t.Fatalf("poisoned op must still be answered: %v", err)
	}
	if resp.Status != wire.StatusErr {
		t.Fatalf("poisoned op answered %v, want ERR", resp.Status)
	}
	if _, err := c.ReadResponse(); !errors.Is(err, io.EOF) {
		t.Fatalf("poisoned connection must close, got %v", err)
	}

	// The process survived: a fresh connection still serves.
	nc2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	c2 := wire.NewConn(nc2)
	resp, err = c2.Do(&wire.Request{Op: wire.OpGet, Key: 2})
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("post-panic op: %+v, %v", resp, err)
	}
	if snap := counters(srv); snap["ordod_panics_total"] != 1 {
		t.Fatalf("panics=%d, want 1", snap["ordod_panics_total"])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestServeAfterShutdownClosesListener: a listener handed to Serve after
// (or concurrently with) Shutdown must be closed, not left accepting — the
// re-check happens under the same lock Shutdown closes listeners under.
func TestServeAfterShutdownClosesListener(t *testing.T) {
	srv, err := New(Config{DB: &fakeDB{}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve after Shutdown must fail")
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listener left open after losing the Serve/Shutdown race: %v", err)
	}
}

// TestDegradedBatchMetrics: a batch that cannot commit and falls back to
// per-op transactions counts as degraded — not as a batch — and per-op
// counters only tally ops with a non-ERR outcome.
func TestDegradedBatchMetrics(t *testing.T) {
	ts, cleanup := startServer(t, newYCSBServer(t, db.OCC))
	defer cleanup()
	srv, c := ts.srv, ts.c

	// Seed one row, as its own committed single-op batch.
	if resp, err := c.Do(&wire.Request{Op: wire.OpInsert, Key: 1, Vals: row(1)}); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("seed insert: %+v, %v", resp, err)
	}
	// A window whose batched commit dies on the duplicate insert.
	reqs := []wire.Request{
		{Op: wire.OpInsert, Key: 2, Vals: row(2)},
		{Op: wire.OpInsert, Key: 1, Vals: row(8)}, // duplicate
		{Op: wire.OpGet, Key: 1},
	}
	for i := range reqs {
		if err := c.WriteRequest(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for range reqs {
		if _, err := c.ReadResponse(); err != nil {
			t.Fatal(err)
		}
	}

	snap := counters(srv)
	if snap["ordod_degraded_runs_total"] != 1 {
		t.Fatalf("degraded=%d, want 1", snap["ordod_degraded_runs_total"])
	}
	// The seed insert plus both window inserts ran (DUPLICATE is an engine
	// answer, not an ERR); the GET ran once.
	if snap[`ordod_ops_total{op="insert"}`] != 3 || snap[`ordod_ops_total{op="get"}`] != 1 {
		t.Fatalf("inserts=%d gets=%d, want 3/1", snap[`ordod_ops_total{op="insert"}`], snap[`ordod_ops_total{op="get"}`])
	}

	// An op rejected by schema validation answers ERR and must not count.
	if resp, err := c.Do(&wire.Request{Op: wire.OpGet, Table: 9, Key: 1}); err != nil || resp.Status != wire.StatusErr {
		t.Fatalf("invalid-table GET: %+v, %v", resp, err)
	}
	if snap := counters(srv); snap[`ordod_ops_total{op="get"}`] != 1 {
		t.Fatalf("ERR op tallied into gets: %d, want 1", snap[`ordod_ops_total{op="get"}`])
	}

	// The STATS frame carries the degraded counter.
	resp, err := c.Do(&wire.Request{Op: wire.OpStats})
	if err != nil || resp.Stats == nil {
		t.Fatalf("stats: %+v, %v", resp, err)
	}
	if resp.Stats.Degraded != 1 {
		t.Fatalf("wire stats degraded=%d, want 1", resp.Stats.Degraded)
	}
}
