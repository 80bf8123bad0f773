package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ordo/internal/db"
	"ordo/internal/db/ycsb"
	"ordo/internal/telemetry"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// startRawServer boots a server without the convenience client, for tests
// that manage their own connections and shutdown sequencing.
func startRawServer(t *testing.T, cfg Config) (*Server, net.Listener, chan error) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	return srv, ln, serveDone
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// onlyConn returns the single registered serverConn.
func onlyConn(srv *Server) *serverConn {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for c := range srv.conns {
		return c
	}
	return nil
}

// TestDrainWhileReaderBlockedAtHardCap wedges the reader in the hard-cap
// wait (engine blocked, queue full) and fires Shutdown: the drain must
// unwedge the reader, answer everything that was accepted — responses in
// order — and tear down without leaking either goroutine.
func TestDrainWhileReaderBlockedAtHardCap(t *testing.T) {
	defer requireNoGoroutineLeak(t)()
	f := &fakeDB{block: make(chan struct{})}
	srv, ln, serveDone := startRawServer(t, Config{DB: f, QueueDepth: 2, MaxBatch: 2})

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	const total = 50
	for i := 0; i < total; i++ {
		if err := c.WriteRequest(&wire.Request{Op: wire.OpGet, Key: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// The worker popped one run and is blocked in the engine; wait until
	// the reader has filled pending to the hard cap, where it blocks.
	waitFor(t, "reader blocked at hard cap", func() bool {
		sc := onlyConn(srv)
		if sc == nil {
			return false
		}
		sc.mu.Lock()
		defer sc.mu.Unlock()
		return len(sc.pending) >= sc.hardCap()
	})

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // drain begins with the engine still blocked
	close(f.block)

	// Every accepted op answers OK (keys in order) or BUSY, then the
	// connection closes cleanly.
	var okKeys []uint64
	responses := 0
	for {
		r, err := c.ReadResponse()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("response %d: %v", responses, err)
			}
			break
		}
		responses++
		switch r.Status {
		case wire.StatusOK:
			okKeys = append(okKeys, r.Row[0]/10)
		case wire.StatusBusy:
		default:
			t.Fatalf("response %d: status %v", responses, r.Status)
		}
	}
	if responses < 5 || responses > total {
		t.Fatalf("answered %d responses, want between 5 (hard cap + in flight) and %d", responses, total)
	}
	for i := 1; i < len(okKeys); i++ {
		if okKeys[i] <= okKeys[i-1] {
			t.Fatalf("OK responses out of order: %v", okKeys)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestProtoErrFlushOrdering interleaves valid frames with garbage in one
// client flush: every valid op must be answered in order, then exactly one
// ERR for the garbage, all flushed before the connection closes.
func TestProtoErrFlushOrdering(t *testing.T) {
	defer requireNoGoroutineLeak(t)()
	f := &fakeDB{}
	srv, ln, serveDone := startRawServer(t, Config{DB: f})

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	for k := 1; k <= 3; k++ {
		if err := c.WriteRequest(&wire.Request{Op: wire.OpGet, Key: uint64(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// A well-framed payload with a bogus opcode: undecodable, stream dead.
	if _, err := nc.Write([]byte{0x02, 0xEE, 0xEE}); err != nil {
		t.Fatal(err)
	}

	for k := 1; k <= 3; k++ {
		r, err := c.ReadResponse()
		if err != nil {
			t.Fatalf("valid op %d: %v", k, err)
		}
		if r.Status != wire.StatusOK || r.Row[0] != uint64(k*10) {
			t.Fatalf("valid op %d answered out of order: %+v", k, r)
		}
	}
	r, err := c.ReadResponse()
	if err != nil {
		t.Fatalf("ERR response must be flushed before close, got %v", err)
	}
	if r.Status != wire.StatusErr {
		t.Fatalf("garbage answered %v, want ERR", r.Status)
	}
	if _, err := c.ReadResponse(); !errors.Is(err, io.EOF) {
		t.Fatalf("connection must close after protocol error, got %v", err)
	}
	if snap := counters(srv); snap["ordod_protocol_errors_total"] != 1 {
		t.Fatalf("protoErrs=%d, want 1", snap["ordod_protocol_errors_total"])
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

// TestDurableDrainCoversAckedWrites pipelines inserts and fires Shutdown
// while responses are still streaming: the drained snapshot's WAL counters
// must match the device exactly, and every insert acked OK before the
// connection closed must be recoverable from the log directory — the
// drain's final flush is part of the durability contract.
func TestDurableDrainCoversAckedWrites(t *testing.T) {
	defer requireNoGoroutineLeak(t)()
	dir := t.TempDir()
	cfg, dev := durableConfig(t, dir)
	srv, ln, serveDone := startRawServer(t, cfg)

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	const total = 200
	for i := 0; i < total; i++ {
		if err := c.WriteRequest(&wire.Request{Op: wire.OpInsert, Key: uint64(i), Vals: row(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// Wait for the first ack so the drain genuinely races an in-progress
	// pipeline; some tail of the window may then be cut off, but whatever
	// is acked OK must be durable.
	acked := make(map[uint64]bool)
	idx := uint64(0)
	r, err := c.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != wire.StatusOK {
		t.Fatalf("first insert answered %v", r.Status)
	}
	acked[idx] = true
	idx++

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	for idx < total {
		r, err := c.ReadResponse()
		if err != nil {
			break // drain closed the connection mid-window
		}
		switch r.Status {
		case wire.StatusOK:
			acked[idx] = true
		case wire.StatusBusy:
		default:
			t.Fatalf("insert %d answered %v", idx, r.Status)
		}
		idx++
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	recs, info, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap := counters(srv); uint64(info.Records) != snap["ordod_wal_records_total"] {
		t.Fatalf("device holds %d records, server counted %d", info.Records, snap["ordod_wal_records_total"])
	}
	if info.Duplicates != 0 || info.TruncatedBytes != 0 {
		t.Fatalf("clean drain left duplicates=%d truncated=%d", info.Duplicates, info.TruncatedBytes)
	}
	fresh, err := db.New(db.OCC, ycsb.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(fresh, recs); err != nil {
		t.Fatal(err)
	}
	if len(acked) == 0 {
		t.Fatal("no insert was acked before the drain; the race never happened")
	}
	sess := fresh.NewSession()
	if err := sess.Run(func(tx db.Tx) error {
		for k := range acked {
			if _, err := tx.Read(0, k); err != nil {
				t.Errorf("acked key %d not recovered: %v", k, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownCtxExpiresMidBatch expires the drain deadline while a worker
// sits inside the engine: Shutdown must hard-close the sockets, return the
// context error once the worker surfaces, and leak nothing.
func TestShutdownCtxExpiresMidBatch(t *testing.T) {
	defer requireNoGoroutineLeak(t)()
	f := &fakeDB{block: make(chan struct{})}
	srv, ln, serveDone := startRawServer(t, Config{DB: f})

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	if err := c.WriteRequest(&wire.Request{Op: wire.OpGet, Key: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker inside the engine", func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.runs >= 1
	})

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	time.Sleep(250 * time.Millisecond) // let the drain deadline expire mid-batch
	close(f.block)                     // the engine finally returns

	if err := <-shutdownDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown = %v, want DeadlineExceeded", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestScrapeDuringDrain hammers /metrics, /healthz, and the catalogue across
// the whole drain window — workers mid-flight, workers exiting and closing
// their histogram shards, lanes shutting down — and keeps scraping after
// Shutdown returns. Run under -race this pins the invariant that a scrape
// never reads a per-conn histogram shard or lane counter without
// synchronization after its owner exits; it also asserts that counts
// recorded by dying connections retire into the parent histograms instead
// of vanishing with the shard.
func TestScrapeDuringDrain(t *testing.T) {
	defer requireNoGoroutineLeak(t)()
	f := &fakeDB{block: make(chan struct{})}
	tel := NewTelemetry(nil, telemetry.NewTracer(64), 0)
	srv, ln, serveDone := startRawServer(t, Config{DB: f, QueueDepth: 8, Telemetry: tel})
	base, closeAdmin := startAdmin(t, srv)
	defer closeAdmin()

	// Several connections with queued pipelines; the engine blocks the
	// first Run, so drains must finish work with scrapes in flight.
	const nConns = 3
	conns := make([]*wire.Conn, nConns)
	for i := range conns {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		conns[i] = wire.NewConn(nc)
		for k := 0; k < 10; k++ {
			if err := conns[i].WriteRequest(&wire.Request{Op: wire.OpGet, Key: uint64(k)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := conns[i].Flush(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "a worker inside the engine", func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.runs >= 1
	})

	stop := make(chan struct{})
	scraperDone := make(chan error, 2)
	go func() {
		for {
			select {
			case <-stop:
				scraperDone <- nil
				return
			default:
			}
			if code, body := adminGet(t, base, "/metrics"); code != 200 {
				scraperDone <- fmt.Errorf("/metrics during drain: %d\n%s", code, body)
				return
			}
			adminGet(t, base, "/healthz")
		}
	}()
	go func() {
		for {
			select {
			case <-stop:
				scraperDone <- nil
				return
			default:
			}
			snap := counters(srv)
			if snap["ordod_panics_total"] != 0 {
				scraperDone <- fmt.Errorf("panics mid-drain: %d", snap["ordod_panics_total"])
				return
			}
		}
	}()

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // scrapes overlap the drain beginning
	close(f.block)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// Scrape past the drain: every worker has exited and closed its shards.
	for i := 0; i < 5; i++ {
		if code, body := adminGet(t, base, "/metrics"); code != 200 {
			t.Fatalf("/metrics after drain: %d\n%s", code, body)
		} else if i == 4 {
			// Retired shard counts must survive their connections: the
			// queue-wait histogram saw every queued op.
			if !strings.Contains(body, "ordod_queue_wait_seconds_count") {
				t.Fatal("queue-wait series missing after drain")
			}
			for _, line := range strings.Split(body, "\n") {
				if strings.HasPrefix(line, "ordod_queue_wait_seconds_count") {
					var n float64
					if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &n); err == nil && n == 0 {
						t.Fatalf("queue-wait counts vanished with their connections: %q", line)
					}
				}
			}
		}
	}
	close(stop)
	for i := 0; i < 2; i++ {
		if err := <-scraperDone; err != nil {
			t.Fatal(err)
		}
	}
}
