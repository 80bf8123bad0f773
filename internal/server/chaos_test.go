package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"ordo/internal/core"
	"ordo/internal/db"
	"ordo/internal/db/ycsb"
	"ordo/internal/faultnet"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// Chaos run shape. Fault magnitudes stay well under the client's hang
// deadline and the shutdown budget, so an injected stall is survivable and
// only a real bug (wedged worker, lost response) trips the detector.
const (
	chaosClients    = 6
	chaosOpsPer     = 400
	chaosRecords    = 256
	chaosWindow     = 16
	chaosReconnects = 30
	chaosHangAfter  = 15 * time.Second
)

func chaosSeed() int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err == nil {
			return v
		}
	}
	return 1
}

func chaosFaults() faultnet.Config {
	return faultnet.Config{
		Seed: chaosSeed(),
		// Probabilities are per-I/O; bufio coalesces a whole pipeline window
		// into a handful of syscalls, so they are set high enough that a run
		// reliably sees latency, chopped frames, stalls, and a few resets.
		LatencyProb: 0.20, MaxLatency: 2 * time.Millisecond,
		StallProb: 0.01, Stall: 300 * time.Millisecond,
		PartialProb: 0.25, ChunkDelay: time.Millisecond,
		ResetProb: 0.01,
	}
}

// TestChaosEndToEnd drives real engines through faultnet: every server-side
// I/O may be delayed, stalled, chopped, or reset. The protocol contract
// under test: each client sees correct responses in request order or a
// clean connection error — never a hang, never a misordered row — and
// after Shutdown the drained snapshot is internally consistent with no
// goroutine left behind.
func TestChaosEndToEnd(t *testing.T) {
	for _, proto := range []db.Protocol{db.OCC, db.OCCOrdo} {
		t.Run(proto.String(), func(t *testing.T) { chaosRun(t, proto) })
	}
}

func chaosRun(t *testing.T, proto db.Protocol) {
	defer requireNoGoroutineLeak(t)()
	var ordo *core.Ordo
	if proto == db.OCCOrdo {
		// Direct construction as in TestEndToEnd: calibration is degenerate
		// on single-vCPU CI boxes and any over-estimate is correct there.
		ordo = core.New(core.Hardware, 1000)
	}
	engine, err := db.New(proto, ycsb.Schema(), ordo)
	if err != nil {
		t.Fatal(err)
	}
	// The chaos run serves durably over a real file-backed device, so the
	// network fault injector and the group-commit path stress each other.
	walDir := t.TempDir()
	dev, err := wal.OpenFile(walDir, wal.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		DB:           engine,
		Schema:       ycsb.Schema(),
		Shards:       4,
		Ordo:         ordo,
		MaxBatch:     16,
		QueueDepth:   64,
		IdleTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		WAL:          wal.New(dev, nil),
		// Records the flush histogram behind ordod_wal_flush_p99_ns.
		Telemetry: NewTelemetry(nil, nil, 0),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two listeners on one server: a clean one for preload, and the
	// faultnet-wrapped one the chaos clients connect through.
	cleanLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rawLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faultLn := faultnet.Wrap(rawLn, chaosFaults())
	serveDone := make(chan error, 2)
	go func() { serveDone <- srv.Serve(cleanLn) }()
	go func() { serveDone <- srv.Serve(faultLn) }()

	chaosPreload(t, cleanLn.Addr().String())

	var wg sync.WaitGroup
	errs := make(chan error, chaosClients)
	doneCh := make(chan int, chaosClients)
	for cl := 0; cl < chaosClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			done, err := chaosClient(rawLn.Addr().String(), cl)
			errs <- err
			doneCh <- done
		}(cl)
	}
	wg.Wait()
	close(errs)
	close(doneCh)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	totalDone := 0
	for d := range doneCh {
		totalDone += d
	}
	// Faults cost retries and reconnects, not overall progress.
	if want := chaosClients * chaosOpsPer / 4; totalDone < want {
		t.Fatalf("only %d ops completed under chaos, want ≥ %d", totalDone, want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under chaos: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-serveDone; err != nil {
			t.Fatalf("serve: %v", err)
		}
	}

	snap := counters(srv)
	assertSnapshotConsistent(t, proto, snap)
	// The drained log must recover cleanly and account for every record the
	// server counted: no duplicates (no device failures happened), no torn
	// tail (the final flush completed before the device closed).
	if err := dev.Close(); err != nil {
		t.Fatalf("closing wal device: %v", err)
	}
	_, info, err := wal.Recover(walDir)
	if err != nil {
		t.Fatalf("recovering drained chaos log: %v", err)
	}
	if uint64(info.Records) != snap["ordod_wal_records_total"] {
		t.Fatalf("device holds %d records, server counted %d", info.Records, snap["ordod_wal_records_total"])
	}
	if info.Duplicates != 0 || info.TruncatedBytes != 0 {
		t.Fatalf("clean drain left duplicates=%d truncated=%d", info.Duplicates, info.TruncatedBytes)
	}
	// The run must actually have exercised the fault classes — a chaos test
	// whose injector never fires passes for the wrong reason.
	inj := faultLn.Stats()
	if inj.Delays == 0 || inj.Partials == 0 || inj.Resets == 0 {
		t.Fatalf("fault injector barely fired: %+v — raise probabilities or op count", inj)
	}
	t.Logf("%s chaos: done=%d commits=%d aborts=%d batches=%d degraded=%d busy=%d evicted=%d proto_errs=%d clock_cmps=%d injected=%+v",
		proto, totalDone, snap["ordod_commits_total"], snap["ordod_aborts_total"], snap["ordod_batches_total"], snap["ordod_degraded_runs_total"],
		snap["ordod_busy_total"], snap["ordod_evictions_total"], snap["ordod_protocol_errors_total"], snap["ordod_clock_cmps_total"], inj)

	// CI's chaos-smoke job archives the drained snapshot for trend
	// inspection across runs.
	if path := os.Getenv("CHAOS_SNAPSHOT_JSON"); path != "" {
		buf, err := json.MarshalIndent(map[string]any{
			"protocol": proto.String(), "ops_done": totalDone, "snapshot": srv.Varz(),
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(append(buf, '\n'))
		f.Close()
	}
}

// chaosPreload seeds the keyspace through the clean listener. Unlike the
// e2e preload it must respect the small chaos QueueDepth: it keeps at most
// half the queue in flight and re-issues BUSY answers.
func chaosPreload(t *testing.T, addr string) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	var inFlight []uint64
	nextKey := uint64(0)
	loaded := 0
	for loaded < chaosRecords {
		for len(inFlight) < 32 && nextKey < chaosRecords {
			if err := c.WriteRequest(&wire.Request{Op: wire.OpInsert, Key: nextKey, Vals: row(int(nextKey))}); err != nil {
				t.Fatal(err)
			}
			inFlight = append(inFlight, nextKey)
			nextKey++
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := c.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		k := inFlight[0]
		inFlight = inFlight[1:]
		switch r.Status {
		case wire.StatusOK:
			loaded++
		case wire.StatusBusy, wire.StatusConflict:
			if err := c.WriteRequest(&wire.Request{Op: wire.OpInsert, Key: k, Vals: row(int(k))}); err != nil {
				t.Fatal(err)
			}
			inFlight = append(inFlight, k)
		default:
			t.Fatalf("preload key %d: %v", k, r.Status)
		}
	}
}

// assertSnapshotConsistent checks the drained snapshot's internal
// arithmetic: every batch commit is an engine commit, batching never
// exceeds its cap, and nothing is still connected.
func assertSnapshotConsistent(t *testing.T, proto db.Protocol, snap map[string]uint64) {
	t.Helper()
	if snap["ordod_commits_total"] == 0 {
		t.Fatal("server committed nothing under chaos")
	}
	if snap["ordod_commits_total"]+snap["ordod_aborts_total"] < snap["ordod_batches_total"] {
		t.Fatalf("commits+aborts=%d < batches=%d", snap["ordod_commits_total"]+snap["ordod_aborts_total"], snap["ordod_batches_total"])
	}
	if snap["ordod_batched_ops_total"] < snap["ordod_batches_total"] {
		t.Fatalf("batchedOps=%d < batches=%d", snap["ordod_batched_ops_total"], snap["ordod_batches_total"])
	}
	if b := snap["ordod_batches_total"]; b > 0 && snap["ordod_batched_ops_total"] > 16*b {
		t.Fatalf("avg batch %.1f exceeds MaxBatch", float64(snap["ordod_batched_ops_total"])/float64(b))
	}
	if snap["ordod_conns_active"] != 0 {
		t.Fatalf("conns still active after shutdown: %d", snap["ordod_conns_active"])
	}
	if proto == db.OCCOrdo && snap["ordod_clock_cmps_total"] == 0 {
		t.Fatal("OCC_ORDO chaos run recorded no hardware-clock comparisons")
	}
	if snap["ordod_panics_total"] != 0 {
		t.Fatalf("worker panics under chaos: %d", snap["ordod_panics_total"])
	}
	// Durable-mode arithmetic: the preload alone guarantees logged writes;
	// each redo record rides exactly one committed transaction; a counted
	// flush wrote at least one record and recorded its sync latency; and a
	// tmpdir device must never fail.
	if snap["ordod_wal_records_total"] == 0 {
		t.Fatal("durable chaos run logged no redo records")
	}
	if snap["ordod_wal_records_total"] > snap["ordod_commits_total"] {
		t.Fatalf("wal_records=%d > commits=%d: a redo record without a commit", snap["ordod_wal_records_total"], snap["ordod_commits_total"])
	}
	if snap["ordod_wal_flushes_total"] == 0 || snap["ordod_wal_flushes_total"] > snap["ordod_wal_records_total"] {
		t.Fatalf("wal_flushes=%d inconsistent with wal_records=%d", snap["ordod_wal_flushes_total"], snap["ordod_wal_records_total"])
	}
	if snap["ordod_wal_flush_p99_ns"] == 0 {
		t.Fatal("ordod_wal_flush_p99_ns is zero with flushes recorded")
	}
	if snap["ordod_wal_device_errors_total"] != 0 {
		t.Fatalf("wal_device_errors=%d on a healthy device", snap["ordod_wal_device_errors_total"])
	}
}

// chaosClient issues pipelined GET/PUTs through the faulty listener. It
// tracks the in-flight window so every OK GET can be checked against the
// key it was issued for — the in-order guarantee — and treats transport
// errors and terminal ERR statuses as a clean connection death: it
// reconnects (bounded) and carries on. A response that misses the hang
// deadline fails the run.
func chaosClient(addr string, seed int) (int, error) {
	rng := uint64(seed)*2654435761 + 12345
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	mkReq := func() wire.Request {
		k := next() % chaosRecords
		if next()&1 == 0 {
			return wire.Request{Op: wire.OpGet, Key: k}
		}
		return wire.Request{Op: wire.OpPut, Key: k, Vals: row(int(k))}
	}

	done := 0
	reconnects := 0
	for done < chaosOpsPer && reconnects <= chaosReconnects {
		n, err := chaosSession(addr, mkReq, chaosOpsPer-done)
		done += n
		if err != nil {
			return done, fmt.Errorf("client %d after %d ops: %w", seed, done, err)
		}
		reconnects++
	}
	return done, nil
}

// chaosSession runs one connection until it completes `want` ops or dies a
// clean death (returns nil). Only a hang or a wrong-order response is an
// error.
func chaosSession(addr string, mkReq func() wire.Request, want int) (int, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, nil // server mid-eviction storm: treat as a clean death
	}
	defer nc.Close()
	c := wire.NewConn(nc)

	var inFlight []wire.Request
	done := 0
	issued := 0
	for done < want {
		for len(inFlight) < chaosWindow && issued < want {
			req := mkReq()
			if err := c.WriteRequest(&req); err != nil {
				return done, nil // clean connection death
			}
			inFlight = append(inFlight, req)
			issued++
		}
		if err := c.Flush(); err != nil {
			return done, nil
		}
		nc.SetReadDeadline(time.Now().Add(chaosHangAfter))
		resp, err := c.ReadResponse()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return done, fmt.Errorf("hang: no response within %v", chaosHangAfter)
			}
			return done, nil // reset/EOF/truncated frame: clean death
		}
		req := inFlight[0]
		inFlight = inFlight[1:]
		switch resp.Status {
		case wire.StatusOK:
			if req.Op == wire.OpGet {
				if resp.Kind != wire.RespRow {
					return done, fmt.Errorf("GET answered kind %v", resp.Kind)
				}
				if len(resp.Row) == 0 || resp.Row[0] != req.Key {
					return done, fmt.Errorf("out-of-order response: GET %d answered row %v", req.Key, resp.Row)
				}
			}
			done++
		case wire.StatusConflict, wire.StatusBusy:
			// Legitimate answers; the op simply doesn't count as done.
		case wire.StatusErr:
			// The server hit a protocol fault on this stream (a frame our
			// side never completed, chopped by an injected reset); the
			// connection is terminal by contract.
			return done, nil
		default:
			return done, fmt.Errorf("op %v answered %v", req.Op, resp.Status)
		}
	}
	return done, nil
}
