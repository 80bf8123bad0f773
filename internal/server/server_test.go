package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"ordo/internal/db"
	"ordo/internal/db/ycsb"
	"ordo/internal/wire"
)

// fakeDB is a scriptable engine for deterministic server tests: GETs answer
// key*10, the first Run can be blocked on a channel, a prefix of Runs can
// be forced to conflict, touching panicKey panics (poisoned-request tests),
// and rowWidth pads GET rows (write-backpressure tests).
type fakeDB struct {
	mu         sync.Mutex
	block      chan struct{} // nil means never block; else first Run waits
	conflicts  int           // forced ErrConflict count before success
	panicKey   uint64        // ops on this key panic when panicArmed
	panicArmed bool
	rowWidth   int // extra columns padded onto GET rows (0 = just one)
	runs       int
	executed   []uint64 // keys touched by committed Runs, in order
}

func (f *fakeDB) checkPoison(key uint64) {
	f.mu.Lock()
	armed := f.panicArmed && key == f.panicKey
	f.mu.Unlock()
	if armed {
		panic(fmt.Sprintf("poisoned request: key %d", key))
	}
}

func (f *fakeDB) Protocol() db.Protocol { return db.OCC }
func (f *fakeDB) NewSession() db.Session {
	return &fakeDBSession{db: f}
}

type fakeDBSession struct {
	db      *fakeDB
	commits uint64
	aborts  uint64
}

func (s *fakeDBSession) Stats() (uint64, uint64) { return s.commits, s.aborts }

func (s *fakeDBSession) Run(fn func(tx db.Tx) error) error {
	f := s.db
	f.mu.Lock()
	f.runs++
	first := f.runs == 1
	if f.conflicts > 0 {
		f.conflicts--
		f.mu.Unlock()
		s.aborts++
		return db.ErrConflict
	}
	f.mu.Unlock()
	if first && f.block != nil {
		<-f.block
	}
	tx := &fakeTx{db: f}
	if err := fn(tx); err != nil {
		s.aborts++
		return err
	}
	f.mu.Lock()
	f.executed = append(f.executed, tx.keys...)
	f.mu.Unlock()
	s.commits++
	return nil
}

type fakeTx struct {
	db   *fakeDB
	keys []uint64
}

func (t *fakeTx) Read(table int, key uint64) ([]uint64, error) {
	t.db.checkPoison(key)
	t.keys = append(t.keys, key)
	row := make([]uint64, 1+t.db.rowWidth)
	row[0] = key * 10
	return row, nil
}
func (t *fakeTx) Update(table int, key uint64, vals []uint64) error {
	t.db.checkPoison(key)
	t.keys = append(t.keys, key)
	return nil
}
func (t *fakeTx) Insert(table int, key uint64, vals []uint64) error {
	t.keys = append(t.keys, key)
	return nil
}
func (t *fakeTx) Delete(table int, key uint64) error {
	t.keys = append(t.keys, key)
	return nil
}

// testServer is one booted loopback server plus a dialed client Conn.
type testServer struct {
	srv  *Server
	c    *wire.Conn
	addr string
}

// startServer boots a server on a loopback listener and returns it with a
// dialed client Conn and a cleanup. It returns only after one STATS round
// trip, so Serve has registered its listener before any caller can shut
// the server down.
func startServer(t *testing.T, cfg Config) (*testServer, func()) {
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

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cleanup := func() {
		nc.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	c := wire.NewConn(nc)
	if resp, err := c.Do(&wire.Request{Op: wire.OpStats}); err != nil || resp.Status != wire.StatusOK {
		cleanup()
		t.Fatalf("startup STATS round trip: %v %v", resp.Status, err)
	}
	return &testServer{srv: srv, c: c, addr: ln.Addr().String()}, cleanup
}

// counters reads the server's catalogue once, by series name, so one
// assertion block sees a single consistent read.
func counters(s *Server) map[string]uint64 {
	out := make(map[string]uint64)
	for _, smp := range s.Catalogue() {
		out[smp.Series] = smp.Value
	}
	return out
}

func newYCSBServer(t *testing.T, p db.Protocol) Config {
	t.Helper()
	engine, err := db.New(p, ycsb.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return Config{DB: engine, Schema: ycsb.Schema()}
}

func row(k int) []uint64 {
	vals := make([]uint64, ycsb.Cols)
	for i := range vals {
		vals[i] = uint64(k)
	}
	return vals
}

func TestServeBasicOps(t *testing.T) {
	ts, cleanup := startServer(t, newYCSBServer(t, db.OCC))
	defer cleanup()
	c := ts.c

	// Insert, read back, update, read back, delete, read again.
	steps := []struct {
		req        wire.Request
		wantStatus wire.Status
		wantRow    []uint64
	}{
		{req: wire.Request{Op: wire.OpInsert, Key: 1, Vals: row(7)}, wantStatus: wire.StatusOK},
		{req: wire.Request{Op: wire.OpGet, Key: 1}, wantStatus: wire.StatusOK, wantRow: row(7)},
		{req: wire.Request{Op: wire.OpPut, Key: 1, Vals: row(9)}, wantStatus: wire.StatusOK},
		{req: wire.Request{Op: wire.OpGet, Key: 1}, wantStatus: wire.StatusOK, wantRow: row(9)},
		{req: wire.Request{Op: wire.OpDelete, Key: 1}, wantStatus: wire.StatusOK},
		{req: wire.Request{Op: wire.OpGet, Key: 1}, wantStatus: wire.StatusNotFound},
		{req: wire.Request{Op: wire.OpDelete, Key: 99}, wantStatus: wire.StatusNotFound},
		{req: wire.Request{Op: wire.OpPut, Key: 99, Vals: row(1)}, wantStatus: wire.StatusNotFound},
		// Schema validation: wrong row width and out-of-range table.
		{req: wire.Request{Op: wire.OpInsert, Key: 2, Vals: []uint64{1}}, wantStatus: wire.StatusErr},
		{req: wire.Request{Op: wire.OpGet, Table: 9, Key: 1}, wantStatus: wire.StatusErr},
	}
	for i, s := range steps {
		resp, err := c.Do(&s.req)
		if err != nil {
			t.Fatalf("step %d (%v): %v", i, s.req.Op, err)
		}
		if resp.Status != s.wantStatus {
			t.Fatalf("step %d (%v): status %v, want %v", i, s.req.Op, resp.Status, s.wantStatus)
		}
		if s.wantRow != nil {
			if len(resp.Row) != len(s.wantRow) || resp.Row[0] != s.wantRow[0] {
				t.Fatalf("step %d: row %v, want %v", i, resp.Row, s.wantRow)
			}
		}
	}
}

// TestPipelinedBatchIsOneTransaction sends a pipelined window and checks
// (a) responses come back in order, (b) a later op in the window observes
// an earlier op's write — only possible if they share one transaction —
// and (c) the server counted exactly one batch.
func TestPipelinedBatchIsOneTransaction(t *testing.T) {
	ts, cleanup := startServer(t, newYCSBServer(t, db.OCC))
	defer cleanup()
	srv, c := ts.srv, ts.c

	reqs := []wire.Request{
		{Op: wire.OpInsert, Key: 5, Vals: row(1)},
		{Op: wire.OpGet, Key: 5},
		{Op: wire.OpPut, Key: 5, Vals: row(2)},
		{Op: wire.OpGet, Key: 5},
	}
	for i := range reqs {
		if err := c.WriteRequest(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var resps []wire.Response
	for range reqs {
		r, err := c.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, r)
	}
	for i, r := range resps {
		if r.Status != wire.StatusOK {
			t.Fatalf("op %d: status %v", i, r.Status)
		}
	}
	if resps[1].Row[0] != 1 || resps[3].Row[0] != 2 {
		t.Fatalf("reads did not observe in-batch writes: %v, %v", resps[1].Row, resps[3].Row)
	}
	snap := counters(srv)
	if snap["ordod_batches_total"] != 1 || snap["ordod_batched_ops_total"] != 4 {
		t.Fatalf("batches=%d batchedOps=%d, want 1/4 (pipeline must fold into one txn)", snap["ordod_batches_total"], snap["ordod_batched_ops_total"])
	}
	if snap["ordod_commits_total"] != 1 {
		t.Fatalf("commits=%d, want 1", snap["ordod_commits_total"])
	}
}

// TestBatchDuplicateFallsBackToPerOp checks status attribution: a batched
// window whose commit fails on a duplicate insert degrades to per-op
// transactions, so the innocent ops still succeed and only the duplicate
// reports DUPLICATE.
func TestBatchDuplicateFallsBackToPerOp(t *testing.T) {
	ts, cleanup := startServer(t, newYCSBServer(t, db.OCC))
	defer cleanup()
	c := ts.c

	if resp, err := c.Do(&wire.Request{Op: wire.OpInsert, Key: 1, Vals: row(1)}); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("seed insert: %v %v", resp.Status, err)
	}

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
	var got []wire.Status
	for range reqs {
		r, err := c.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r.Status)
	}
	want := []wire.Status{wire.StatusOK, wire.StatusDuplicate, wire.StatusOK}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("statuses %v, want %v", got, want)
		}
	}
}

func TestTxnFrameAtomicAndSelfDescribing(t *testing.T) {
	ts, cleanup := startServer(t, newYCSBServer(t, db.OCC))
	defer cleanup()
	c := ts.c

	resp, err := c.Do(&wire.Request{Op: wire.OpTxn, Ops: []wire.Request{
		{Op: wire.OpInsert, Key: 10, Vals: row(3)},
		{Op: wire.OpGet, Key: 10},
		{Op: wire.OpGet, Key: 404},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.RespBatch || resp.Status != wire.StatusOK {
		t.Fatalf("txn response: %+v", resp)
	}
	if len(resp.Batch) != 3 {
		t.Fatalf("txn returned %d results, want 3", len(resp.Batch))
	}
	if resp.Batch[0].Status != wire.StatusOK ||
		resp.Batch[1].Status != wire.StatusOK || resp.Batch[1].Row[0] != 3 ||
		resp.Batch[2].Status != wire.StatusNotFound {
		t.Fatalf("txn per-op results: %+v", resp.Batch)
	}
}

func TestStatsFrame(t *testing.T) {
	ts, cleanup := startServer(t, newYCSBServer(t, db.OCC))
	defer cleanup()
	c := ts.c

	if _, err := c.Do(&wire.Request{Op: wire.OpInsert, Key: 3, Vals: row(1)}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(&wire.Request{Op: wire.OpStats})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.RespStats || resp.Stats == nil {
		t.Fatalf("stats response: %+v", resp)
	}
	if resp.Stats.Protocol != "OCC" {
		t.Fatalf("protocol %q", resp.Stats.Protocol)
	}
	if resp.Stats.Commits == 0 {
		t.Fatal("stats must report the preceding commit")
	}
}

// TestConflictRetry forces conflicts under the cap and over it: under the
// cap the op succeeds transparently; a fresh connection forced to conflict
// past the cap surfaces CONFLICT.
func TestConflictRetry(t *testing.T) {
	f := &fakeDB{conflicts: 3}
	ts, cleanup := startServer(t, Config{DB: f, MaxRetries: 5})
	defer cleanup()
	srv, c := ts.srv, ts.c

	resp, err := c.Do(&wire.Request{Op: wire.OpGet, Key: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK || resp.Row[0] != 40 {
		t.Fatalf("retried op: %+v", resp)
	}
	if snap := counters(srv); snap["ordod_aborts_total"] != 3 {
		t.Fatalf("aborts=%d, want 3", snap["ordod_aborts_total"])
	}

	f.mu.Lock()
	f.conflicts = 100
	f.mu.Unlock()
	resp, err = c.Do(&wire.Request{Op: wire.OpGet, Key: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusConflict {
		t.Fatalf("exhausted retries: status %v, want CONFLICT", resp.Status)
	}
}

// TestBusyShedding blocks the engine, floods the connection past its
// bounded queue, and checks that shed ops answer BUSY while every accepted
// op still executes and answers in order.
func TestBusyShedding(t *testing.T) {
	f := &fakeDB{block: make(chan struct{})}
	const total = 40
	ts, cleanup := startServer(t, Config{DB: f, QueueDepth: 4, MaxBatch: 4})
	defer cleanup()
	srv, c := ts.srv, ts.c

	for i := 0; i < total; i++ {
		if err := c.WriteRequest(&wire.Request{Op: wire.OpGet, Key: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the reader fill the bounded queue
	close(f.block)

	var ok, busy []uint64
	for i := 0; i < total; i++ {
		r, err := c.ReadResponse()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		switch r.Status {
		case wire.StatusOK:
			ok = append(ok, r.Row[0]/10)
		case wire.StatusBusy:
			busy = append(busy, uint64(i))
		default:
			t.Fatalf("response %d: status %v", i, r.Status)
		}
	}
	if len(busy) == 0 {
		t.Fatal("queue depth 4 with a blocked engine must shed some of 40 ops")
	}
	if len(ok)+len(busy) != total {
		t.Fatalf("%d ok + %d busy != %d", len(ok), len(busy), total)
	}
	// Every OK response carries its own key, so order-correctness of the
	// response stream is visible: keys must be strictly increasing.
	for i := 1; i < len(ok); i++ {
		if ok[i] <= ok[i-1] {
			t.Fatalf("OK responses out of order: %v", ok)
		}
	}
	f.mu.Lock()
	executed := len(f.executed)
	f.mu.Unlock()
	if executed != len(ok) {
		t.Fatalf("engine executed %d ops but %d OK responses", executed, len(ok))
	}
	if snap := counters(srv); snap["ordod_busy_total"] != uint64(len(busy)) {
		t.Fatalf("snapshot busy=%d, want %d", snap["ordod_busy_total"], len(busy))
	}
}

// TestGracefulDrain checks the SIGTERM path at the package level: requests
// accepted before Shutdown are executed and their responses flushed before
// the connection closes.
func TestGracefulDrain(t *testing.T) {
	f := &fakeDB{block: make(chan struct{})}
	srv, err := New(Config{DB: f})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)

	const total = 5
	for i := 0; i < total; i++ {
		if err := c.WriteRequest(&wire.Request{Op: wire.OpGet, Key: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the reader accept all five

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // drain begins with the engine blocked
	close(f.block)

	for i := 0; i < total; i++ {
		r, err := c.ReadResponse()
		if err != nil {
			t.Fatalf("drained response %d: %v", i, err)
		}
		if r.Status != wire.StatusOK || r.Row[0] != uint64(i*10) {
			t.Fatalf("drained response %d: %+v", i, r)
		}
	}
	if _, err := c.ReadResponse(); !errors.Is(err, io.EOF) {
		t.Fatalf("connection must close after drain, got %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestProtocolErrorAnswersThenCloses sends garbage: the server answers one
// typed ERR response and closes, rather than dropping the connection mute.
func TestProtocolErrorAnswersThenCloses(t *testing.T) {
	ts, cleanup := startServer(t, newYCSBServer(t, db.OCC))
	defer cleanup()
	srv, c := ts.srv, ts.c

	nc, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte{0x02, 0xEE, 0xEE}); err != nil { // valid frame, bogus opcode
		t.Fatal(err)
	}
	cc := wire.NewConn(nc)
	resp, err := cc.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusErr {
		t.Fatalf("garbage frame: status %v, want ERR", resp.Status)
	}
	if _, err := cc.ReadResponse(); !errors.Is(err, io.EOF) {
		t.Fatalf("connection must close after protocol error, got %v", err)
	}
	_ = c // keep the main connection open through the test
	if snap := counters(srv); snap["ordod_protocol_errors_total"] == 0 {
		t.Fatal("protocol error not counted")
	}
}
