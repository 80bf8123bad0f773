package server

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ordo/internal/db"
	"ordo/internal/db/ycsb"
	"ordo/internal/shard"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// slowDevice is an in-memory device whose every write takes delay, as a
// disk's fsync does: appends made while a write is in flight wait for the
// next flush.
type slowDevice struct {
	wal.MemDevice
	delay time.Duration
}

func (d *slowDevice) Write(recs []wal.Record) error {
	time.Sleep(d.delay)
	return d.MemDevice.Write(recs)
}

// gatedFailDevice lets its first ok writes through, then holds the next
// one until release is closed and fails it and every later write. Only the
// group committer's flusher calls Write, one call at a time.
type gatedFailDevice struct {
	wal.MemDevice
	ok      int
	calls   int
	release chan struct{}
}

func (d *gatedFailDevice) Write(recs []wal.Record) error {
	if d.calls++; d.calls <= d.ok {
		return d.MemDevice.Write(recs)
	}
	<-d.release
	return wal.ErrDeviceFailed
}

// crossLanePair returns two keys from `from` upward that route to lanes 0
// and 1 of a two-lane server, in that order.
func crossLanePair(srv *Server, from uint64) (k0, k1 uint64) {
	keys := shapeKeys(srv, "cross-lane-txn", from, 2)
	if srv.lanes.Route(keys[0]) == 1 {
		return keys[1], keys[0]
	}
	return keys[0], keys[1]
}

// pipeline writes reqs as one pipelined window and reads their responses.
func pipeline(t *testing.T, c *wire.Conn, reqs []wire.Request) []wire.Response {
	t.Helper()
	for i := range reqs {
		if err := c.WriteRequest(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	out := make([]wire.Response, len(reqs))
	for i := range out {
		r, err := c.ReadResponse()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		out[i] = r
	}
	return out
}

// queuedRun drives one connection worker over a pipe with reqs already in
// its queue and the reader done, as a reader that framed the whole window
// before the worker's first pop leaves it, so run boundaries are popRun's
// alone. The items at the indices in shed are queued past the bound. It
// returns the responses in the order the worker wrote them, once the
// worker has exited.
func queuedRun(t *testing.T, srv *Server, reqs []wire.Request, shed ...int) []wire.Response {
	t.Helper()
	a, b := net.Pipe()
	defer b.Close()
	c := newServerConn(srv, a)
	for i := range reqs {
		payload, err := wire.AppendRequest(nil, &reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		c.pending = append(c.pending, item{payload: payload, op: wire.PeekOp(payload)})
	}
	for _, i := range shed {
		c.pending[i].shed = true
	}
	c.readerDone = true
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.workLoop()
	}()
	wc := wire.NewConn(b)
	out := make([]wire.Response, len(reqs))
	for i := range out {
		r, err := wc.ReadResponse()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		out[i] = r
	}
	<-done
	return out
}

// transfers returns n cross-lane write TXNs, each putting value i on both
// keys of the pair.
func transfers(k0, k1 uint64, n int) []wire.Request {
	out := make([]wire.Request, n)
	for i := range out {
		out[i] = wire.Request{Op: wire.OpTxn, Ops: []wire.Request{
			{Op: wire.OpPut, Key: k0, Vals: row(i)},
			{Op: wire.OpPut, Key: k1, Vals: row(i)},
		}}
	}
	return out
}

// TestDurableTxnWindowSharesFlush pins group commit for TXN frames: a
// pipelined window of cross-lane write TXNs on one durable connection is
// one execution unit, so its records share flushes instead of each TXN
// waiting out a flush of its own. All of them ack OK, in request order.
func TestDurableTxnWindowSharesFlush(t *testing.T) {
	const n = 8
	engine, err := db.New(db.OCC, ycsb.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dev := &slowDevice{delay: 20 * time.Millisecond}
	ts, cleanup := startServer(t, Config{DB: engine, Schema: ycsb.Schema(), WAL: wal.New(dev, nil), Shards: 2})
	defer cleanup()
	k0, k1 := crossLanePair(ts.srv, 1)
	if r, err := ts.c.Do(&wire.Request{Op: wire.OpTxn, Ops: []wire.Request{
		{Op: wire.OpInsert, Key: k0, Vals: row(0)}, {Op: wire.OpInsert, Key: k1, Vals: row(0)},
	}}); err != nil || r.Status != wire.StatusOK {
		t.Fatalf("preload: %v %v", r.Status, err)
	}
	before := counters(ts.srv)

	var lastTS uint64
	for i, r := range pipeline(t, ts.c, transfers(k0, k1, n)) {
		if r.Status != wire.StatusOK || len(r.Batch) != 2 {
			t.Fatalf("TXN %d: %v with %d results, want OK with 2", i, r.Status, len(r.Batch))
		}
		for _, sub := range r.Batch {
			if sub.Status != wire.StatusOK || sub.TS < lastTS {
				t.Fatalf("TXN %d: put %v ts=%d after ts=%d, want OK with a nondecreasing token", i, sub.Status, sub.TS, lastTS)
			}
			lastTS = sub.TS
		}
	}
	after := counters(ts.srv)
	flushes := after["ordod_wal_flushes_total"] - before["ordod_wal_flushes_total"]
	records := after["ordod_wal_records_total"] - before["ordod_wal_records_total"]
	if records != n {
		t.Fatalf("wal_records=%d for %d cross-lane TXNs, want one coordinator record each", records, n)
	}
	if flushes >= n {
		t.Fatalf("wal_flushes=%d for a window of %d write TXNs, want fewer: the TXNs did not share a flush", flushes, n)
	}
	// The last TXN in request order is the one that stands.
	r, err := ts.c.Do(&wire.Request{Op: wire.OpTxn, Ops: []wire.Request{{Op: wire.OpGet, Key: k0}, {Op: wire.OpGet, Key: k1}}})
	if err != nil || r.Status != wire.StatusOK {
		t.Fatalf("read back: %v %v", r.Status, err)
	}
	for _, sub := range r.Batch {
		if sub.Row[0] != uint64(n-1) {
			t.Fatalf("read back %v, want the last TXN's value %d", sub.Row, n-1)
		}
	}
	t.Logf("%d TXNs: %d records in %d flushes", n, records, flushes)
}

// TestDurableTxnWindowOneAckObservation pins the ack accounting of a TXN
// run: the window's one shared durability wait is observed once in
// ordod_ack_latency_seconds, not once per TXN (every wait after the first
// would return at once and drag the histogram toward zero).
func TestDurableTxnWindowOneAckObservation(t *testing.T) {
	const n = 8
	cfg, dev := durableConfig(t, t.TempDir())
	defer dev.Close()
	cfg.Shards = 2
	cfg.Telemetry = NewTelemetry(nil, nil, 0)
	ts, cleanup := startServer(t, cfg)
	defer cleanup()
	k0, k1 := crossLanePair(ts.srv, 1)
	for _, k := range []uint64{k0, k1} {
		if r, err := ts.c.Do(&wire.Request{Op: wire.OpInsert, Key: k, Vals: row(0)}); err != nil || r.Status != wire.StatusOK {
			t.Fatalf("preload %d: %v %v", k, r.Status, err)
		}
	}
	acks := func() uint64 { return cfg.Telemetry.ackLat.Merged().Count() }
	base := acks()
	for i, r := range queuedRun(t, ts.srv, transfers(k0, k1, n)) {
		if r.Status != wire.StatusOK {
			t.Fatalf("TXN %d: %v", i, r.Status)
		}
	}
	if got := acks() - base; got != 1 {
		t.Fatalf("%d ack observations for one window of %d write TXNs, want 1", got, n)
	}
	if got := counters(ts.srv)["ordod_cross_shard_txns_total"]; got != n {
		t.Fatalf("cross_shard_txns=%d, want %d", got, n)
	}
}

// TestDurableTxnRunDeviceFailure injects a device failure under a run of
// TXN frames whose write TXNs both appended before the failing flush
// returned: the run's one wait fails, so every write TXN of the run answers
// ERR as a whole and each of its writes counts under wal_unacked_writes,
// while the run's read-only TXNs keep their answers.
func TestDurableTxnRunDeviceFailure(t *testing.T) {
	engine, err := db.New(db.OCC, ycsb.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dev := &gatedFailDevice{ok: 1, release: make(chan struct{})}
	ts, cleanup := startServer(t, Config{DB: engine, Schema: ycsb.Schema(), WAL: wal.New(dev, nil), Shards: 2})
	defer cleanup()
	var once sync.Once
	release := func() { once.Do(func() { close(dev.release) }) }
	defer release() // before cleanup: a blocked flush would wedge the drain

	a0, b1 := crossLanePair(ts.srv, 1)
	lane0 := shapeKeys(ts.srv, "single-lane-txn", a0, 2) // a0 and the next key on lane 0
	a1 := lane0[1]
	ins := &wire.Request{Op: wire.OpTxn}
	for _, k := range []uint64{a0, a1, b1} {
		ins.Ops = append(ins.Ops, wire.Request{Op: wire.OpInsert, Key: k, Vals: row(int(k))})
	}
	if r, err := ts.c.Do(ins); err != nil || r.Status != wire.StatusOK {
		t.Fatalf("preload rides the good flush: %v %v", r.Status, err)
	}
	appended := func() uint64 {
		ts.srv.gc.mu.Lock()
		defer ts.srv.gc.mu.Unlock()
		return ts.srv.gc.appendSeq
	}
	base := appended()

	window := []wire.Request{
		{Op: wire.OpTxn, Ops: []wire.Request{ // single-lane write
			{Op: wire.OpPut, Key: a0, Vals: row(100)}, {Op: wire.OpPut, Key: a1, Vals: row(100)},
		}},
		{Op: wire.OpTxn, Ops: []wire.Request{{Op: wire.OpGet, Key: a0}, {Op: wire.OpGet, Key: a1}}},
		{Op: wire.OpTxn, Ops: []wire.Request{ // cross-lane write
			{Op: wire.OpPut, Key: a0, Vals: row(200)}, {Op: wire.OpPut, Key: b1, Vals: row(200)},
		}},
		{Op: wire.OpTxn, Ops: []wire.Request{{Op: wire.OpGet, Key: a0}, {Op: wire.OpGet, Key: b1}}},
	}
	for i := range window {
		if err := ts.c.WriteRequest(&window[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Both write TXNs append before either is acked; then the flush that
	// covers them fails.
	waitFor(t, "both write TXNs of the run to append", func() bool { return appended() == base+2 })
	release()

	for i := range window {
		r, err := ts.c.ReadResponse()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if runHasWrites(window[i].Ops) {
			if r.Kind != wire.RespBatch || r.Status != wire.StatusErr || len(r.Batch) != 0 {
				t.Fatalf("write TXN %d: %v %v with %d results, want a bare ERR", i, r.Kind, r.Status, len(r.Batch))
			}
			continue
		}
		if r.Status != wire.StatusOK || len(r.Batch) != 2 {
			t.Fatalf("read TXN %d: %v with %d results, want OK with 2", i, r.Status, len(r.Batch))
		}
		for j, sub := range r.Batch {
			if sub.Status != wire.StatusOK || len(sub.Row) == 0 {
				t.Fatalf("read TXN %d op %d: %+v", i, j, sub)
			}
		}
	}
	snap := counters(ts.srv)
	if snap["ordod_wal_unacked_writes_total"] != 4 {
		t.Fatalf("wal_unacked_writes=%d, want 4 (both write TXNs' puts)", snap["ordod_wal_unacked_writes_total"])
	}
	if snap["ordod_wal_device_errors_total"] != 1 {
		t.Fatalf("wal_device_errors=%d, want 1", snap["ordod_wal_device_errors_total"])
	}
}

// TestDurableMixedStreamInOrder queues one window of every frame kind —
// simple ops, write and read TXNs on one lane and across lanes, STATS and
// a shed TXN — and checks each answer lands in its request's slot: the
// TXN runs, the simple-op runs and the frames that run alone interleave
// in request order.
func TestDurableMixedStreamInOrder(t *testing.T) {
	cfg, dev := durableConfig(t, t.TempDir())
	defer dev.Close()
	cfg.Shards = 2
	ts, cleanup := startServer(t, cfg)
	defer cleanup()
	k0, k1 := crossLanePair(ts.srv, 1)
	for _, k := range []uint64{k0, k1} {
		if r, err := ts.c.Do(&wire.Request{Op: wire.OpInsert, Key: k, Vals: row(0)}); err != nil || r.Status != wire.StatusOK {
			t.Fatalf("preload %d: %v %v", k, r.Status, err)
		}
	}
	get := func(k uint64) wire.Request { return wire.Request{Op: wire.OpGet, Key: k} }
	put := func(k uint64, v int) wire.Request { return wire.Request{Op: wire.OpPut, Key: k, Vals: row(v)} }
	txn := func(ops ...wire.Request) wire.Request { return wire.Request{Op: wire.OpTxn, Ops: ops} }
	reqs := []wire.Request{
		put(k0, 1),
		get(k0),
		txn(put(k0, 2), put(k1, 2)), // cross-lane write
		txn(get(k0), get(k1)),       // cross-lane read
		txn(put(k1, 3)),             // one-lane write
		{Op: wire.OpStats},
		txn(put(k0, 9)), // shed
		txn(get(k1)),
		get(k0),
		put(k1, 4),
		txn(get(k1), get(k0)),
	}
	const shed = 6
	// want[i] is the row value each op of request i reads back, -1 for a
	// write's bare OK.
	want := [][]int{{-1}, {1}, {-1, -1}, {2, 2}, {-1}, nil, nil, {3}, {2}, {-1}, {4, 2}}
	resps := queuedRun(t, ts.srv, reqs, shed)
	check := func(i, j int, r wire.Response, w int) {
		if r.Status != wire.StatusOK {
			t.Fatalf("request %d op %d: %v", i, j, r.Status)
		}
		if w < 0 {
			if r.Kind != wire.RespEmpty {
				t.Fatalf("request %d op %d: a %v answer for a write", i, j, r.Kind)
			}
			return
		}
		if r.Kind != wire.RespRow || r.Row[0] != uint64(w) {
			t.Fatalf("request %d op %d: %v %v, want row %d", i, j, r.Kind, r.Row, w)
		}
	}
	for i, r := range resps {
		switch {
		case i == shed:
			if r.Status != wire.StatusBusy {
				t.Fatalf("shed TXN %d: %v, want BUSY", i, r.Status)
			}
		case reqs[i].Op == wire.OpStats:
			if r.Kind != wire.RespStats || r.Stats == nil {
				t.Fatalf("STATS %d: %v", i, r.Kind)
			}
		case reqs[i].Op == wire.OpTxn:
			if r.Kind != wire.RespBatch || r.Status != wire.StatusOK || len(r.Batch) != len(want[i]) {
				t.Fatalf("TXN %d: %v %v with %d results", i, r.Kind, r.Status, len(r.Batch))
			}
			for j, sub := range r.Batch {
				check(i, j, sub, want[i][j])
			}
		default:
			check(i, 0, r, want[i][0])
		}
	}
	if n := counters(ts.srv)["ordod_busy_total"]; n != 1 {
		t.Fatalf("busy=%d, want the one shed TXN", n)
	}
}

// boardMover wraps an engine so that, once armed with the server's lanes,
// every transaction attempt first moves lane 0's publication board, as a
// writer on another connection committing during each optimistic pass of
// a cross-lane read would.
type boardMover struct {
	db.DB
	lanes atomic.Pointer[shard.Set]
}

func (m *boardMover) NewSession() db.Session { return moverSession{m.DB.NewSession(), m} }

type moverSession struct {
	db.Session
	m *boardMover
}

func (s moverSession) Run(fn func(tx db.Tx) error) error {
	if set := s.m.lanes.Load(); set != nil {
		ln := set.Lane(0)
		ln.Publish(ln.Published() + 1)
	}
	return s.Session.Run(fn)
}

// TestCrossShardReadParkedFallbackCounted pins the parked-read counter: a
// cross-lane read whose every optimistic pass sees a board move spends its
// passes, falls back to parking the involved lanes, still answers OK, and
// counts once under ordod_cross_shard_parked_reads_total.
func TestCrossShardReadParkedFallbackCounted(t *testing.T) {
	engine, err := db.New(db.OCC, ycsb.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mover := &boardMover{DB: engine}
	ts, cleanup := startServer(t, Config{DB: mover, Schema: ycsb.Schema(), Shards: 2})
	defer cleanup()
	k0, k1 := crossLanePair(ts.srv, 1)
	for _, k := range []uint64{k0, k1} {
		if r, err := ts.c.Do(&wire.Request{Op: wire.OpInsert, Key: k, Vals: row(int(k))}); err != nil || r.Status != wire.StatusOK {
			t.Fatalf("preload %d: %v %v", k, r.Status, err)
		}
	}
	mover.lanes.Store(ts.srv.lanes)
	r, err := ts.c.Do(&wire.Request{Op: wire.OpTxn, Ops: []wire.Request{{Op: wire.OpGet, Key: k0}, {Op: wire.OpGet, Key: k1}}})
	if err != nil || r.Status != wire.StatusOK || len(r.Batch) != 2 {
		t.Fatalf("cross-lane read: %+v %v", r, err)
	}
	for j, k := range []uint64{k0, k1} {
		if r.Batch[j].Row[0] != k {
			t.Fatalf("op %d: %v, want key %d's row", j, r.Batch[j].Row, k)
		}
	}
	snap := counters(ts.srv)
	if snap["ordod_cross_shard_retries_total"] != crossReadAttempts || snap["ordod_cross_shard_parked_reads_total"] != 1 {
		t.Fatalf("retries=%d parked_reads=%d, want %d and 1",
			snap["ordod_cross_shard_retries_total"], snap["ordod_cross_shard_parked_reads_total"], crossReadAttempts)
	}
	for ln := 0; ln < ts.srv.lanes.N(); ln++ {
		if h := ts.srv.lanes.Lane(ln).Holds(); h != 1 {
			t.Fatalf("lane %d parked %d times, want once for the fallback", ln, h)
		}
	}
}
