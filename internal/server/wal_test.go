package server

import (
	"context"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"ordo/internal/db"
	"ordo/internal/db/ycsb"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// TestRedoRoundTrip checks the redo codec: every write-set encodes to one
// payload that decodes back to the same ops, and mangled payloads are
// rejected rather than misparsed.
func TestRedoRoundTrip(t *testing.T) {
	sets := [][]*wire.Request{
		{{Op: wire.OpInsert, Table: 0, Key: 1, Vals: []uint64{1, 2}}},
		{
			{Op: wire.OpPut, Table: 1, Key: 9, Vals: []uint64{}},
			{Op: wire.OpDelete, Table: 0, Key: 3},
			{Op: wire.OpInsert, Table: 2, Key: 4, Vals: []uint64{7}},
		},
	}
	for si, ops := range sets {
		redo, err := AppendRedo(nil, ops)
		if err != nil {
			t.Fatalf("set %d: encode: %v", si, err)
		}
		got, err := DecodeRedo(redo)
		if err != nil {
			t.Fatalf("set %d: decode: %v", si, err)
		}
		if len(got) != len(ops) {
			t.Fatalf("set %d: decoded %d ops, want %d", si, len(got), len(ops))
		}
		for i := range ops {
			if got[i].Op != ops[i].Op || got[i].Table != ops[i].Table || got[i].Key != ops[i].Key {
				t.Fatalf("set %d op %d: got %+v, want %+v", si, i, got[i], *ops[i])
			}
			if len(got[i].Vals) != len(ops[i].Vals) ||
				(len(ops[i].Vals) > 0 && !reflect.DeepEqual(got[i].Vals, ops[i].Vals)) {
				t.Fatalf("set %d op %d: vals %v, want %v", si, i, got[i].Vals, ops[i].Vals)
			}
		}
		// Trailing garbage and truncation must both be detected.
		if _, err := DecodeRedo(append(append([]byte(nil), redo...), 0xFF)); err == nil {
			t.Fatalf("set %d: trailing byte accepted", si)
		}
		if _, err := DecodeRedo(redo[:len(redo)-1]); err == nil {
			t.Fatalf("set %d: truncated payload accepted", si)
		}
	}
	if _, err := DecodeRedo(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
}

// durableConfig builds a YCSB OCC server config over a FileDevice in a
// temp dir, returning the config and the open device (closed by the test).
func durableConfig(t *testing.T, dir string) (Config, *wal.FileDevice) {
	t.Helper()
	dev, err := wal.OpenFile(dir, wal.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := db.New(db.OCC, ycsb.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return Config{DB: engine, Schema: ycsb.Schema(), WAL: wal.New(dev, nil)}, dev
}

// TestDurableServeRecoverReplay is the durability e2e: serve writes over a
// real FileDevice, shut down, recover the directory, replay into a fresh
// engine, and check the replayed state equals exactly what was acked.
func TestDurableServeRecoverReplay(t *testing.T) {
	dir := t.TempDir()
	cfg, dev := durableConfig(t, dir)
	cfg.Telemetry = NewTelemetry(nil, nil, 0) // records the flush histogram behind ordod_wal_flush_p99_ns
	ts, cleanup := startServer(t, cfg)
	c := ts.c

	// A mix of shapes: pipelined inserts (one batched commit), an update,
	// a delete, and a TXN — all acked, so all must survive the restart.
	reqs := []wire.Request{
		{Op: wire.OpInsert, Key: 1, Vals: row(1)},
		{Op: wire.OpInsert, Key: 2, Vals: row(2)},
		{Op: wire.OpInsert, Key: 3, Vals: row(3)},
	}
	for i := range reqs {
		if err := c.WriteRequest(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		r, err := c.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != wire.StatusOK {
			t.Fatalf("insert %d: %v", i, r.Status)
		}
	}
	for _, req := range []wire.Request{
		{Op: wire.OpPut, Key: 2, Vals: row(22)},
		{Op: wire.OpDelete, Key: 3},
		{Op: wire.OpTxn, Ops: []wire.Request{
			{Op: wire.OpInsert, Key: 4, Vals: row(4)},
			{Op: wire.OpPut, Key: 1, Vals: row(11)},
		}},
	} {
		r, err := c.Do(&req)
		if err != nil {
			t.Fatalf("%v: %v", req.Op, err)
		}
		if r.Status != wire.StatusOK {
			t.Fatalf("%v: %v", req.Op, r.Status)
		}
	}

	snap := counters(ts.srv)
	if snap["ordod_wal_records_total"] == 0 || snap["ordod_wal_flushes_total"] == 0 {
		t.Fatalf("wal counters not moving: flushes=%d records=%d", snap["ordod_wal_flushes_total"], snap["ordod_wal_records_total"])
	}
	if snap["ordod_wal_flush_p99_ns"] == 0 {
		t.Fatal("ordod_wal_flush_p99_ns is zero with flushes recorded")
	}
	if snap["ordod_wal_device_errors_total"] != 0 {
		t.Fatalf("wal_device_errors=%d on a healthy device", snap["ordod_wal_device_errors_total"])
	}

	cleanup()
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	recs, info, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.TruncatedBytes != 0 {
		t.Fatalf("clean shutdown truncated %d bytes", info.TruncatedBytes)
	}
	fresh, err := db.New(db.OCC, ycsb.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Replay(fresh, recs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Anomalies != 0 {
		t.Fatalf("replay into empty engine hit %d anomalies", st.Anomalies)
	}
	if st.Records != len(recs) {
		t.Fatalf("replayed %d of %d records", st.Records, len(recs))
	}

	want := map[uint64][]uint64{1: row(11), 2: row(22), 4: row(4)}
	gone := []uint64{3, 99}
	sess := fresh.NewSession()
	err = sess.Run(func(tx db.Tx) error {
		for k, v := range want {
			got, err := tx.Read(0, k)
			if err != nil {
				t.Errorf("key %d: %v", k, err)
				continue
			}
			if !reflect.DeepEqual(got, v) {
				t.Errorf("key %d: %v, want %v", k, got, v)
			}
		}
		for _, k := range gone {
			if _, err := tx.Read(0, k); err != db.ErrNotFound {
				t.Errorf("key %d: err %v, want ErrNotFound", k, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// writeShape is one way a client issues writes: a pipelined run, a TXN
// confined to one lane, or a TXN spanning lanes. Every durable write takes
// the same commit/ack pipeline, so each shape must honor the same failure
// contract.
type writeShape struct {
	name string
	// issue sends inserts of keys (routed by the caller) and returns one
	// response per key — a TXN's single response is repeated per key.
	issue func(t *testing.T, c *wire.Conn, keys []uint64) []wire.Response
}

var writeShapes = []writeShape{
	{"pipelined-run", func(t *testing.T, c *wire.Conn, keys []uint64) []wire.Response {
		for _, k := range keys {
			if err := c.WriteRequest(&wire.Request{Op: wire.OpInsert, Key: k, Vals: row(int(k))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		out := make([]wire.Response, len(keys))
		for i := range out {
			r, err := c.ReadResponse()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = r
		}
		return out
	}},
	{"single-lane-txn", issueTxn},
	{"cross-lane-txn", issueTxn},
}

// issueTxn inserts keys in one TXN frame.
func issueTxn(t *testing.T, c *wire.Conn, keys []uint64) []wire.Response {
	txn := &wire.Request{Op: wire.OpTxn}
	for _, k := range keys {
		txn.Ops = append(txn.Ops, wire.Request{Op: wire.OpInsert, Key: k, Vals: row(int(k))})
	}
	r, err := c.Do(txn)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]wire.Response, len(keys))
	for i := range out {
		out[i] = r
	}
	return out
}

// shapeKeys picks n keys from `from` upward on a two-lane server: all
// routed to one lane for the single-lane TXN, alternating lanes otherwise.
func shapeKeys(srv *Server, shape string, from uint64, n int) []uint64 {
	want := srv.lanes.Route(from)
	var keys []uint64
	for k := from; len(keys) < n; k++ {
		if srv.lanes.Route(k) == want {
			keys = append(keys, k)
			if shape != "single-lane-txn" {
				want = 1 - want
			}
		}
	}
	return keys
}

// TestDurableDeviceFailureDegrades kills the device mid-serving and checks
// the contract for every write shape: the in-flight writes are ERRed
// (never acked), wal_unacked_writes counts exactly the writes that
// committed in memory but were never logged, later writes are refused
// without touching the engine, reads keep serving, and the failure is
// counted exactly once.
func TestDurableDeviceFailureDegrades(t *testing.T) {
	for _, shape := range writeShapes {
		t.Run(shape.name, func(t *testing.T) {
			engine, err := db.New(db.OCC, ycsb.Schema(), nil)
			if err != nil {
				t.Fatal(err)
			}
			fd := &wal.FailingDevice{Inner: &wal.MemDevice{}, OK: 1}
			cfg := Config{DB: engine, Schema: ycsb.Schema(), WAL: wal.New(fd, nil), Shards: 2}
			ts, cleanup := startServer(t, cfg)
			defer cleanup()
			c := ts.c

			// First write rides the device's one good flush.
			if r, err := c.Do(&wire.Request{Op: wire.OpInsert, Key: 1, Vals: row(1)}); err != nil || r.Status != wire.StatusOK {
				t.Fatalf("first insert: %v %v", r.Status, err)
			}
			// The shape's writes hit the dead device: whatever committed in
			// memory is never durable, so the server must answer ERR, not OK.
			keys := shapeKeys(ts.srv, shape.name, 100, 4)
			for i, r := range shape.issue(t, c, keys) {
				if r.Status != wire.StatusErr || r.TS != 0 {
					t.Fatalf("key %d on failed device: %v ts=%d, want ERR without a token", keys[i], r.Status, r.TS)
				}
			}
			// A committed-but-unlogged write stays visible until restart
			// (DESIGN.md §10); a refused one never reached the engine.
			var committed uint64
			for _, k := range keys {
				r, err := c.Do(&wire.Request{Op: wire.OpGet, Key: k})
				if err != nil {
					t.Fatal(err)
				}
				if r.Status == wire.StatusOK {
					committed++
				}
			}
			if committed == 0 {
				t.Fatal("no write reached the engine; the failure path was not exercised")
			}
			// Subsequent writes are refused up front; reads still serve.
			if r, err := c.Do(&wire.Request{Op: wire.OpPut, Key: 1, Vals: row(9)}); err != nil || r.Status != wire.StatusErr {
				t.Fatalf("degraded put: %v %v, want ERR", r.Status, err)
			}
			if r, err := c.Do(&wire.Request{Op: wire.OpTxn, Ops: []wire.Request{
				{Op: wire.OpPut, Key: 1, Vals: row(9)},
			}}); err != nil || r.Status != wire.StatusErr {
				t.Fatalf("degraded txn: %v %v, want ERR", r.Status, err)
			}
			if r, err := c.Do(&wire.Request{Op: wire.OpGet, Key: 1}); err != nil || r.Status != wire.StatusOK || r.Row[0] != 1 {
				t.Fatalf("degraded read: %+v %v, want key 1 served", r, err)
			}
			// Read-only TXNs still serve too, on one lane and across lanes.
			if r, err := c.Do(&wire.Request{Op: wire.OpTxn, Ops: []wire.Request{
				{Op: wire.OpGet, Key: 1}, {Op: wire.OpGet, Key: shapeKeys(ts.srv, "cross-lane-txn", 1, 2)[1]},
			}}); err != nil || r.Status != wire.StatusOK {
				t.Fatalf("degraded read-only txn: %v %v, want OK", r.Status, err)
			}

			snap := counters(ts.srv)
			if snap["ordod_wal_device_errors_total"] != 1 {
				t.Fatalf("wal_device_errors=%d, want exactly 1 (sticky failure counts once)", snap["ordod_wal_device_errors_total"])
			}
			// The refused-up-front writes never committed, so they don't count.
			if snap["ordod_wal_unacked_writes_total"] != committed {
				t.Fatalf("wal_unacked_writes=%d, want %d (the ERRed writes that committed but were never logged)",
					snap["ordod_wal_unacked_writes_total"], committed)
			}
			// STATS over the wire reports the same degradation.
			r, err := c.Do(&wire.Request{Op: wire.OpStats})
			if err != nil || r.Stats == nil {
				t.Fatalf("stats: %+v %v", r, err)
			}
			if n := r.Stats.Value("ordod_wal_device_errors_total"); n != 1 {
				t.Fatalf("wire wal_device_errors=%d, want 1", n)
			}
		})
	}
	// A replication-gated leader whose followers never acknowledge: every
	// shape's writes are durable locally but must answer UNCERTAIN — never
	// OK, never ERR — and carry no ack token a client could wait on.
	for _, shape := range writeShapes {
		t.Run("repl-ack-timeout/"+shape.name, func(t *testing.T) {
			cfg, dev := durableConfig(t, t.TempDir())
			defer dev.Close()
			cfg.Shards, cfg.ReplAckBound = 2, 50*time.Millisecond
			ts, cleanup := startServer(t, cfg)
			defer cleanup()
			for i, r := range shape.issue(t, ts.c, shapeKeys(ts.srv, shape.name, 100, 4)) {
				if r.Status != wire.StatusUncertain || r.TS != 0 {
					t.Fatalf("write %d: %v ts=%d, want UNCERTAIN without a token", i, r.Status, r.TS)
				}
				for _, sub := range r.Batch {
					if sub.TS != 0 {
						t.Fatalf("write %d: TXN sub-response carries token %d", i, sub.TS)
					}
				}
			}
			// Durable locally: nothing was lost to the log, so nothing
			// counts as committed-but-unlogged.
			if n := counters(ts.srv)["ordod_wal_unacked_writes_total"]; n != 0 {
				t.Fatalf("wal_unacked_writes=%d after replication-ack timeouts, want 0", n)
			}
		})
	}
}

// TestReplayIdempotent replays the same records twice into one engine: the
// second pass must converge on the same state (upsert semantics) while
// counting the anomalies it absorbed.
func TestReplayIdempotent(t *testing.T) {
	redo1, err := AppendRedo(nil, []*wire.Request{
		{Op: wire.OpInsert, Table: 0, Key: 1, Vals: row(1)},
		{Op: wire.OpInsert, Table: 0, Key: 2, Vals: row(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	redo2, err := AppendRedo(nil, []*wire.Request{
		{Op: wire.OpPut, Table: 0, Key: 1, Vals: row(10)},
		{Op: wire.OpDelete, Table: 0, Key: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := []wal.Record{
		{LSN: 1, TS: 100, H: 0, Seq: 0, Data: redo1},
		{LSN: 2, TS: 200, H: 0, Seq: 1, Data: redo2},
	}

	engine, err := db.New(db.OCC, ycsb.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := Replay(engine, recs)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Anomalies != 0 || st1.Records != 2 || st1.Ops != 4 {
		t.Fatalf("first replay: %+v", st1)
	}
	st2, err := Replay(engine, recs)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Anomalies == 0 {
		t.Fatal("second replay reported no anomalies; upsert paths never ran")
	}

	sess := engine.NewSession()
	if err := sess.Run(func(tx db.Tx) error {
		got, err := tx.Read(0, 1)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, row(10)) {
			t.Errorf("key 1: %v, want %v", got, row(10))
		}
		if _, err := tx.Read(0, 2); err != db.ErrNotFound {
			t.Errorf("key 2: err %v, want ErrNotFound", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRequiresCommitTS checks the configuration guard: protocols
// without a machine-wide commit timestamp cannot serve durably.
func TestDurableRequiresCommitTS(t *testing.T) {
	engine, err := db.New(db.Silo, ycsb.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{DB: engine, WAL: wal.New(&wal.MemDevice{}, nil)})
	if err == nil {
		t.Fatal("New accepted a durable SILO server; Silo has no commit timestamps")
	}
}

// TestGroupCommitAckRequiresOwnFlush pins the fix for the acked-write-loss
// race: durability is tracked per append (flush-generation style), so a
// record appended at a stale commit timestamp — its worker descheduled
// while another connection's later-timestamped commit already flushed —
// must not be acknowledged until a flush actually drains it. A timestamp
// high-water mark acked it immediately, and a crash before the next flush
// lost an acknowledged write. Flushes are driven by hand (no flusher
// goroutine) so the adversarial interleaving is exact.
func TestGroupCommitAckRequiresOwnFlush(t *testing.T) {
	dev := &wal.MemDevice{}
	log := wal.New(dev, nil)
	gc := &groupCommitter{srv: &Server{}, log: log, done: make(chan struct{})}
	gc.cond = sync.NewCond(&gc.mu)
	hA, hB := log.NewHandle(), log.NewHandle()

	// Connection B commits at cts=200, appends, and its flush completes.
	seqB, _, err := gc.append(hB, 200, []byte("b"), 0)
	if err != nil {
		t.Fatal(err)
	}
	gc.flushOnce()
	if err := gc.wait(seqB); err != nil {
		t.Fatalf("flushed append not acked: %v", err)
	}

	// Connection A committed earlier (cts=100) but its worker only now runs
	// the append: the record is buffered, nothing covering it has flushed.
	seqA, _, err := gc.append(hA, 100, []byte("a"), 0)
	if err != nil {
		t.Fatal(err)
	}
	acked := make(chan error, 1)
	go func() { acked <- gc.wait(seqA) }()
	select {
	case err := <-acked:
		t.Fatalf("wait returned (err=%v) with the record still buffered", err)
	case <-time.After(50 * time.Millisecond):
	}

	gc.flushOnce()
	if err := <-acked; err != nil {
		t.Fatalf("append not acked by its own flush: %v", err)
	}
	// The ack must imply the record is on the device.
	for _, r := range dev.Records() {
		if string(r.Data) == "a" {
			return
		}
	}
	t.Fatal("acknowledged record missing from the device")
}

// TestAppendFailureErasesOnlyItsRecord drives one pipelined run whose two
// lane slices straddle a device failure: lane 0's record is durable before
// the device dies, lane 1's append comes after it. Only lane 1's write may
// answer ERR and count as unacked; lane 0's write is on the device and its
// ack must stand, with its token.
func TestAppendFailureErasesOnlyItsRecord(t *testing.T) {
	engine, err := db.New(db.OCC, ycsb.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fd := &wal.FailingDevice{Inner: &wal.MemDevice{}, OK: 1}
	srv, err := New(Config{DB: engine, Schema: ycsb.Schema(), WAL: wal.New(fd, nil), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	defer b.Close()
	c := newServerConn(srv, a)
	defer func() {
		a.Close()
		c.log.wh.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	sess := engine.NewSession()
	lane0, lane1 := srv.newWALStream(0), srv.newWALStream(1)
	slice := func(run []wire.Request, resps []wire.Response, i int) ([]*wire.Request, []*wire.Response) {
		reqs, out := []*wire.Request{&run[i]}, []*wire.Response{&resps[i]}
		if err := srv.runOps(sess, reqs, out); err != nil {
			t.Fatal(err)
		}
		return reqs, out
	}

	run := []wire.Request{
		{Op: wire.OpInsert, Key: 1, Vals: row(1)},
		{Op: wire.OpInsert, Key: 2, Vals: row(2)},
	}
	resps := make([]wire.Response, len(run))
	reqs, out := slice(run, resps, 0)
	_, seq0, err := lane0.logAcked(sess, reqs, out, 0)
	if err != nil || srv.gc.wait(seq0) != nil {
		t.Fatalf("lane 0 record not durable on the good flush: %v", err)
	}
	// The device dies on the next flush, before lane 1 appends.
	dead := []wire.Request{{Op: wire.OpInsert, Key: 3, Vals: row(3)}}
	reqs, out = slice(dead, make([]wire.Response, 1), 0)
	if _, seq, err := lane0.logAcked(sess, reqs, out, 0); err != nil || srv.gc.wait(seq) == nil {
		t.Fatal("device did not fail on its second flush")
	}
	reqs, out = slice(run, resps, 1)
	if _, seq1, err := lane1.logAcked(sess, reqs, out, 0); err == nil || seq1 != 0 {
		t.Fatalf("lane 1 appended to a failed log: seq=%d err=%v", seq1, err)
	}
	if err := c.awaitAck(seq0, run, resps); err != nil {
		t.Fatalf("run's wait on lane 0's durable record failed: %v", err)
	}
	if resps[0].Status != wire.StatusOK || resps[0].TS == 0 {
		t.Fatalf("durable write answered %v ts=%d, want OK with a token", resps[0].Status, resps[0].TS)
	}
	if resps[1].Status != wire.StatusErr || resps[1].TS != 0 {
		t.Fatalf("unlogged write answered %v ts=%d, want ERR without a token", resps[1].Status, resps[1].TS)
	}
	if n := counters(srv)["ordod_wal_unacked_writes_total"]; n != 1 {
		t.Fatalf("wal_unacked_writes=%d, want 1 (lane 1's write only)", n)
	}
	lane0.wh.Close()
	lane1.wh.Close()
}
