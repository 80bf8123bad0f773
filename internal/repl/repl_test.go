package repl_test

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"ordo/internal/db"
	"ordo/internal/faultnet"
	"ordo/internal/repl"
	"ordo/internal/server"
	"ordo/internal/telemetry"
	"ordo/internal/telemetry/span"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

var testSchema = db.Schema{Tables: []db.TableDef{{Name: "t0", Cols: 2}}}

// leaderHarness is one in-process durable leader: a serving listener for
// clients and a faultnet-wrapped replication listener for followers.
type leaderHarness struct {
	t      *testing.T
	dir    string
	engine db.DB
	dev    *wal.FileDevice
	log    *wal.Log
	state  *server.ReplState
	src    *repl.Source
	srv    *server.Server

	addr     string // client serving address
	replAddr string // replication (chaos-wrapped) address
	faultLn  *faultnet.Listener

	serveDone chan error
	replDone  chan error
}

// startLeader boots a leader. replAddr is the replication listen address —
// "127.0.0.1:0" for a fresh pick, or a previous harness's replAddr so a
// restarted leader comes back where its followers expect it. A non-nil
// ring enables distributed tracing: the serving core captures spans for
// client-stamped requests and the Source records repl_ship spans into it.
func startLeader(t *testing.T, dir string, faults faultnet.Config, replAddr string, ring *span.Ring) *leaderHarness {
	t.Helper()
	engine, err := db.New(db.OCC, testSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Replay(engine, recs); err != nil {
		t.Fatal(err)
	}
	dev, err := wal.OpenFile(dir, wal.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	log := wal.New(dev, nil)
	state := server.NewReplState(server.RoleLeader, 0, 0, 0)
	src, err := repl.NewSource(repl.SourceConfig{
		Dir:            dir,
		Log:            log,
		Incarnation:    dev.Incarnation(),
		State:          state,
		WatermarkEvery: 20 * time.Millisecond,
		Spans:          ring,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var tel *server.Telemetry
	if ring != nil {
		tel = server.NewTelemetry(telemetry.NewRegistry(), telemetry.NewTracer(64), time.Second)
		tel.EnableTracing(ring, 0)
	}
	srv, err := server.New(server.Config{
		DB:        engine,
		Schema:    testSchema,
		WAL:       log,
		Repl:      state,
		Telemetry: tel,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replLn, err := net.Listen("tcp", replAddr)
	if err != nil {
		t.Fatal(err)
	}
	h := &leaderHarness{
		t: t, dir: dir, engine: engine, dev: dev, log: log, state: state,
		src: src, srv: srv,
		addr: ln.Addr().String(), replAddr: replLn.Addr().String(),
		serveDone: make(chan error, 1), replDone: make(chan error, 1),
	}
	h.faultLn = faultnet.Wrap(replLn, faults)
	go func() { h.serveDone <- srv.Serve(ln) }()
	go func() { h.replDone <- src.Serve(h.faultLn) }()
	return h
}

func (h *leaderHarness) stop() {
	h.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		h.t.Fatalf("leader shutdown: %v", err)
	}
	<-h.serveDone
	h.src.Close()
	<-h.replDone
	if err := h.dev.Close(); err != nil {
		h.t.Fatalf("leader wal close: %v", err)
	}
}

// followerHarness is one in-process follower: a tailing apply loop over its
// own durable WAL, and a read-only watermark-gated serving listener.
type followerHarness struct {
	t      *testing.T
	dir    string
	engine db.DB
	dev    *wal.FileDevice
	rec    *repl.RegimeFile
	state  *server.ReplState
	fol    *repl.Follower
	srv    *server.Server
	addr   string

	cancel    context.CancelFunc
	runDone   chan struct{}
	serveDone chan error
}

// startFollower boots a follower tailing leaderAddr. A non-nil ring makes
// the apply loop record repl_apply spans for traced records.
func startFollower(t *testing.T, dir, leaderAddr string, ring *span.Ring) *followerHarness {
	t.Helper()
	engine, err := db.New(db.OCC, testSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Replay(engine, recs); err != nil {
		t.Fatal(err)
	}
	dev, err := wal.OpenFile(dir, wal.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	log := wal.New(dev, nil)
	rec, err := repl.OpenRegime(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := server.NewReplState(server.RoleFollower, 0, time.Second, 1<<20)
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Addr:       leaderAddr,
		DB:         engine,
		Log:        log,
		State:      state,
		Regime:     rec,
		RetryEvery: 20 * time.Millisecond,
		Spans:      ring,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		DB:       engine,
		Schema:   testSchema,
		ReadOnly: true,
		Repl:     state,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &followerHarness{
		t: t, dir: dir, engine: engine, dev: dev, rec: rec, state: state, fol: fol,
		srv: srv, addr: ln.Addr().String(),
		cancel: cancel, runDone: make(chan struct{}), serveDone: make(chan error, 1),
	}
	go func() {
		defer close(h.runDone)
		fol.Run(ctx)
	}()
	go func() { h.serveDone <- srv.Serve(ln) }()
	return h
}

func (h *followerHarness) stop() {
	h.t.Helper()
	h.cancel()
	<-h.runDone
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		h.t.Fatalf("follower shutdown: %v", err)
	}
	<-h.serveDone
	if err := h.dev.Close(); err != nil {
		h.t.Fatalf("follower wal close: %v", err)
	}
	if err := h.rec.Close(); err != nil {
		h.t.Fatalf("follower regime record close: %v", err)
	}
}

// ackedWrite is one leader-acknowledged write and its durability token.
type ackedWrite struct {
	key   uint64
	val   uint64
	token uint64 // Response.TS: the timestamp the redo record was logged at
}

// pump writes n keys through one pipelined leader connection, retrying
// BUSY/CONFLICT, and returns every acknowledged write with its token.
func pump(t *testing.T, addr string, base uint64, n int) []ackedWrite {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	acked := make([]ackedWrite, 0, n)
	const window = 32
	var inFlight []ackedWrite
	next := 0
	for len(acked) < n {
		for len(inFlight) < window && next < n {
			w := ackedWrite{key: base + uint64(next), val: base + uint64(next)*7}
			if err := c.WriteRequest(&wire.Request{Op: wire.OpInsert, Key: w.key, Vals: []uint64{w.val, w.val + 1}}); err != nil {
				t.Fatal(err)
			}
			inFlight = append(inFlight, w)
			next++
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := c.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		w := inFlight[0]
		inFlight = inFlight[1:]
		switch r.Status {
		case wire.StatusOK:
			if r.TS == 0 {
				t.Fatalf("key %d: acked durable write carries no timestamp token", w.key)
			}
			w.token = r.TS
			acked = append(acked, w)
		case wire.StatusBusy, wire.StatusConflict:
			if err := c.WriteRequest(&wire.Request{Op: wire.OpInsert, Key: w.key, Vals: []uint64{w.val, w.val + 1}}); err != nil {
				t.Fatal(err)
			}
			inFlight = append(inFlight, w)
		default:
			t.Fatalf("key %d: %v", w.key, r.Status)
		}
	}
	return acked
}

// getAt issues one GET_AT and returns the response.
func getAt(t *testing.T, c *wire.Conn, key, minTS uint64) wire.Response {
	t.Helper()
	if err := c.WriteRequest(&wire.Request{Op: wire.OpGetAt, Key: key, MinTS: minTS}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := c.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReplicationEndToEnd is the acceptance run: a durable leader under
// pipelined write load, a follower tailing it through a chaotic link
// (latency, chunked writes, injected resets — every reset forces a
// reconnect-and-resume by position), and the two consistency promises
// checked for every single acknowledged write:
//
//  1. read-your-writes: GET_AT with the write's ack token eventually
//     succeeds on the follower and returns the written value;
//  2. the watermark gate: every NOT_YET on the way carries a watermark
//     strictly below the demanded timestamp, and no read is served above
//     the watermark.
//
// A follower restart in the middle must resume from its durable cursor
// rather than refetch history, and a fresh incarnation of the leader's
// WAL (leader restart) must stream seamlessly after backfill.
func TestReplicationEndToEnd(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	faults := faultnet.Config{
		Seed:        42,
		LatencyProb: 0.02, MaxLatency: 2 * time.Millisecond,
		PartialProb: 0.15, ChunkDelay: time.Millisecond,
		ResetProb: 0.002,
	}
	leader := startLeader(t, ldir, faults, "127.0.0.1:0", nil)
	follower := startFollower(t, fdir, leader.replAddr, nil)

	const phase1 = 400
	acked := pump(t, leader.addr, 0, phase1)

	verify := func(fAddr string, writes []ackedWrite) {
		t.Helper()
		nc, err := net.Dial("tcp", fAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		c := wire.NewConn(nc)
		deadline := time.Now().Add(30 * time.Second)
		for _, w := range writes {
			for {
				r := getAt(t, c, w.key, w.token)
				if r.Status == wire.StatusNotYet {
					if r.TS >= w.token {
						t.Fatalf("key %d: NOT_YET with watermark %d >= demanded %d", w.key, r.TS, w.token)
					}
					if time.Now().After(deadline) {
						t.Fatalf("key %d: not visible on follower before deadline (watermark %d, want %d)", w.key, r.TS, w.token)
					}
					time.Sleep(5 * time.Millisecond)
					continue
				}
				if r.Status != wire.StatusOK {
					t.Fatalf("key %d: GET_AT: %v", w.key, r.Status)
				}
				if len(r.Row) != 2 || r.Row[0] != w.val || r.Row[1] != w.val+1 {
					t.Fatalf("key %d: follower row %v, want [%d %d]", w.key, r.Row, w.val, w.val+1)
				}
				break
			}
		}
	}
	verify(follower.addr, acked)

	// The served prefix is consistent with the advertised watermark: the
	// watermark never exceeds the applied timestamp, so no read ran ahead
	// of apply.
	if w, a := follower.state.Watermark(), follower.state.AppliedTS(); w > a {
		t.Fatalf("watermark %d ran ahead of applied timestamp %d", w, a)
	}

	// The follower must reject writes outright in read-only mode — with
	// NOT_LEADER, so a resilient client knows to chase the leader.
	nc, err := net.Dial("tcp", follower.addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := wire.NewConn(nc)
	if err := fc.WriteRequest(&wire.Request{Op: wire.OpPut, Key: 0, Vals: []uint64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := fc.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := fc.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != wire.StatusNotLeader {
		t.Fatalf("follower answered a write with %v, want NOT_LEADER", r.Status)
	}
	// A demanded timestamp far above anything committed answers NOT_YET
	// carrying the current watermark.
	if r := getAt(t, fc, 0, 1<<62); r.Status != wire.StatusNotYet {
		t.Fatalf("GET_AT far future: %v, want NOT_YET", r.Status)
	}
	nc.Close()

	// Restart the follower: it must come back from its own WAL and cursor,
	// resuming strictly after what it already applied.
	preRestart := follower.fol.Position()
	if preRestart.Inc == 0 || preRestart.Seq == 0 {
		t.Fatalf("follower cursor %+v still at origin after %d applied writes", preRestart, phase1)
	}
	follower.stop()

	const phase2 = 200
	acked2 := pump(t, leader.addr, 1_000_000, phase2)

	follower = startFollower(t, fdir, leader.replAddr, nil)
	if got := follower.fol.Position(); got != preRestart {
		t.Fatalf("restarted follower resumed from %+v, want durable cursor %+v", got, preRestart)
	}
	verify(follower.addr, acked2)
	// Everything from before the restart is still there (recovered from
	// the follower's own WAL, not refetched).
	verify(follower.addr, acked[:20])

	// Restart the leader: a new WAL incarnation on the same replication
	// address. The follower must reconnect, cross the incarnation boundary
	// via backfill, and keep applying.
	// The chaos must not have been vacuous: phase 1 and 2 streamed through
	// the faulty link, so it really delayed or chopped frames.
	if st := leader.faultLn.Stats(); st.Partials == 0 && st.Delays == 0 {
		t.Fatalf("faultnet injected nothing: %+v", st)
	}
	replAddr := leader.replAddr
	leader.stop()
	leader = startLeader(t, ldir, faults, replAddr, nil)
	acked3 := pump(t, leader.addr, 2_000_000, phase2)
	verify(follower.addr, acked3)

	if n := follower.state.AppliedRecords(); n == 0 {
		t.Fatal("follower applied-records counter never moved")
	}
	follower.stop()
	leader.stop()
}

// TestFollowerLagHealth pins the /healthz follower rule end to end: a
// follower that loses its leader flips LagExceeded after the contact bound,
// and a healthy one does not.
func TestFollowerLagHealth(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	leader := startLeader(t, ldir, faultnet.Config{}, "127.0.0.1:0", nil)
	follower := startFollower(t, fdir, leader.replAddr, nil)

	pump(t, leader.addr, 0, 50)
	waitFor(t, "follower contact", func() bool { return follower.state.AppliedRecords() > 0 })
	if follower.state.LagExceeded() {
		t.Fatal("healthy follower reports lag exceeded")
	}

	leader.stop()
	waitFor(t, "lag rule to trip", func() bool { return follower.state.LagExceeded() })
	follower.stop()
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSourceRequiresLog pins constructor validation.
func TestSourceRequiresLog(t *testing.T) {
	if _, err := repl.NewSource(repl.SourceConfig{Dir: t.TempDir()}); err == nil {
		t.Fatal("NewSource accepted a nil log")
	}
	if _, err := repl.NewFollower(repl.FollowerConfig{}); err == nil {
		t.Fatal("NewFollower accepted an empty config")
	}
}

// TestStaleRejectNotContact pins the election-starvation fix: a zombie
// leader refusing a newer follower with lower-epoch REJECTs is a fencing
// event, not leader contact — counting it as contact would keep resetting
// ContactAge and the heartbeat-timeout election would never fire.
func TestStaleRejectNotContact(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				if _, _, err := wire.ReadReplHello(bufio.NewReaderSize(nc, 4<<10), nil); err != nil {
					return
				}
				rej := wire.ReplMsg{Kind: wire.ReplReject, Epoch: 1, Role: uint64(server.RoleLeader)}
				p, err := wire.AppendReplMsg(nil, &rej)
				if err != nil {
					return
				}
				_ = wire.WriteReplFrame(nc, p)
			}()
		}
	}()

	dir := t.TempDir()
	engine, err := db.New(db.OCC, testSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := wal.OpenFile(dir, wal.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	rec, err := repl.OpenRegime(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.Store(repl.Regime{Role: server.RoleFollower, Epoch: 5}); err != nil {
		t.Fatal(err)
	}
	state := server.NewReplState(server.RoleFollower, 0, time.Second, 1<<20)
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Addr:   ln.Addr().String(),
		DB:     engine,
		Log:    wal.New(dev, nil),
		State:  state,
		Regime: rec,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	const settled = 60 * time.Millisecond
	time.Sleep(settled)
	err = fol.Session(context.Background())
	if err == nil {
		t.Fatal("session against a stale-epoch zombie ended without error")
	}
	var fenced *repl.Fenced
	if errors.As(err, &fenced) {
		t.Fatalf("lower-epoch REJECT surfaced as Fenced (%v): converging on a stale regime", err)
	}
	if state.Fencings() == 0 {
		t.Fatal("stale-epoch refusal not counted as a fencing event")
	}
	if age := state.ContactAge(); age < settled {
		t.Fatalf("ContactAge %v < %v: the zombie's REJECT was counted as leader contact", age, settled)
	}
	if fol.Epoch() != 5 {
		t.Fatalf("follower epoch moved to %d on a stale refusal", fol.Epoch())
	}
}

// TestHoldAckGate pins the resumed-leader safety net: with HoldAckGate set,
// the no-subscriber waiver of AckAdvance stays suppressed — a resumed
// leader that may have been superseded must not ack writes only it holds —
// until the first follower subscribes, after which the normal waiver rules
// return for the rest of the Source's lifetime.
func TestHoldAckGate(t *testing.T) {
	dir := t.TempDir()
	dev, err := wal.OpenFile(dir, wal.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	log := wal.New(dev, nil)
	var mu sync.Mutex
	var acks []uint64
	src, err := repl.NewSource(repl.SourceConfig{
		Dir:         dir,
		Log:         log,
		Incarnation: dev.Incarnation(),
		AckAdvance: func(seq uint64) {
			mu.Lock()
			acks = append(acks, seq)
			mu.Unlock()
		},
		HoldAckGate:    true,
		WatermarkEvery: time.Hour, // keep heartbeat frames off the pipe
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	h := log.NewHandle()
	h.AppendAt(1, []byte("x"))
	if _, err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	held := len(acks)
	mu.Unlock()
	if held != 0 {
		t.Fatalf("held gate waived %d ack(s) with no subscriber", held)
	}

	// First subscriber arrives: registration releases the hold.
	cli, srvConn := net.Pipe()
	go src.ServeSubscriber(srvConn, bufio.NewReaderSize(srvConn, 4<<10), &wire.ReplMsg{Kind: wire.ReplSubscribe})
	r := bufio.NewReaderSize(cli, 64<<10)
	for i := 0; i < 2; i++ { // STATUS, then the backfilled batch
		if _, _, err := wire.ReadReplHello(r, nil); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	// The follower dies without acking: the last-leaves waiver must fire
	// now that the hold is released.
	cli.Close()
	waitFor(t, "last-leaves waiver", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(acks) > 0
	})

	// And a later no-subscriber flush waives normally.
	mu.Lock()
	before := len(acks)
	mu.Unlock()
	h.AppendAt(2, []byte("y"))
	if _, err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	after := len(acks)
	mu.Unlock()
	if after <= before {
		t.Fatal("no-subscriber waiver still suppressed after the first subscription")
	}
}
