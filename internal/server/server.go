// Package server is ordod's network engine: it serves the wire protocol
// over TCP on top of any db.DB, which makes the Ordo-vs-logical-clock
// choice observable from outside the process for the first time — the same
// engine, the same workload, different timestamp allocation, measured
// through a socket.
//
// The serving model is built around the paper's economics. Timestamp
// allocation is the scalability bottleneck (§6.5), so the server amortizes
// it: each connection has one reader goroutine and one worker goroutine,
// and the worker folds a connection's pipelined simple ops into a single
// engine transaction — one begin timestamp, one commit timestamp, one
// validation — instead of one commit per op (see DESIGN.md §8 for why that
// preserves the ordering argument). Responses flow back in request order
// through a flushing buffered writer, so a pipelining client never pays a
// syscall per op on either side.
//
// Overload is handled by shedding, not queueing: each connection's pending
// queue is bounded, and ops beyond the bound are answered with a typed BUSY
// status in order, without touching the engine. Conflicted batches retry
// with capped exponential backoff (db.RunWithRetry); batches that still
// fail fall back to per-op transactions so every op gets an attributable
// status. Shutdown drains: accepted requests are executed and their
// responses flushed before connections close.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ordo/internal/core"
	"ordo/internal/db"
	"ordo/internal/health"
	"ordo/internal/shard"
	"ordo/internal/telemetry"
	"ordo/internal/telemetry/span"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// Config parameterizes a Server. DB is required; everything else defaults.
type Config struct {
	// DB is the engine to serve.
	DB db.DB

	// Schema, when non-zero, enables request validation: table ids must be
	// in range and PUT/INSERT rows must match the table's fixed width.
	// Invalid ops are answered with ERR without reaching the engine.
	Schema db.Schema

	// Shards is the number of single-writer partition lanes the keyspace is
	// hashed across. Each lane owns one engine session and one WAL append
	// stream, and is the only goroutine that writes its partition; cross-
	// shard operations are stitched back into one order with Ordo timestamp
	// comparison. Zero means one lane (the pre-shard behavior); values are
	// clamped to MaxShards.
	Shards int

	// Ordo, when set, gives cross-shard reads an uncertainty test: a read
	// that races a commit whose timestamp is Ordo-incomparable with the
	// read's start answers NOT_YET instead of retrying blindly. Nil (logical
	// clocks) means every interference is definitely ordered and the server
	// never answers NOT_YET.
	Ordo *core.Ordo

	// MaxBatch caps how many pipelined simple ops one engine transaction
	// absorbs. Zero means DefaultMaxBatch.
	MaxBatch int

	// QueueDepth bounds each connection's pending-op queue; ops arriving
	// beyond it are shed with BUSY. Zero means DefaultQueueDepth.
	QueueDepth int

	// MaxRetries caps conflict retries per engine transaction (attempts =
	// MaxRetries+1). Zero means DefaultMaxRetries; negative means none.
	MaxRetries int

	// IdleTimeout evicts a connection whose client sends no complete
	// request for this long: the reader's deadline expires, the worker
	// finishes whatever was already queued, and the connection closes.
	// Zero disables idle eviction.
	IdleTimeout time.Duration

	// WriteTimeout bounds each response write and flush. A client that
	// stops reading long enough for the kernel's send buffer to fill is
	// evicted instead of parking the worker (and its engine session) on a
	// blocked write. Zero disables write deadlines.
	WriteTimeout time.Duration

	// Monitor, when set, contributes the clock-health snapshot to Varz();
	// the server does not start or stop it.
	Monitor *health.Monitor

	// WAL, when set, enables durable serving: committed write-sets append
	// redo records to per-lane handles (cross-lane TXNs to their
	// coordinator's) and responses are withheld until a group-commit flush
	// covers the appended record. The
	// engine must expose commit timestamps (db.CommitTS) — the OCC and
	// Hekaton families do; Silo and TicToc have no machine-wide commit
	// point and cannot serve durably. The server owns flushing but not the
	// underlying device: close the device after Shutdown returns.
	WAL *wal.Log

	// Recovery, when set, is the startup recovery this server's engine was
	// seeded from; the catalogue reports its record and truncation counts.
	Recovery *wal.RecoveryInfo

	// ReadOnly refuses every mutating op without touching the engine —
	// follower-mode serving, where the engine's only writer is the
	// replication apply loop. Reads (GET, GET_AT, read-only TXNs) serve
	// normally. The refusal status is ERR, or NOT_LEADER with a redirect
	// when Repl knows a leader address (failover mode). This is only the
	// initial value: failover promotion flips it at runtime via
	// SetReadOnly.
	ReadOnly bool

	// ReplAckBound, when positive, gates durable write acks on follower
	// acknowledgment: after a write's redo is locally durable, the ack is
	// additionally withheld until a follower of the current incarnation
	// has acknowledged the covering flush (Server.NoteReplAck), or until
	// this bound elapses — in which case the write is answered UNCERTAIN:
	// durable locally, replication unconfirmed. While no follower is subscribed the gate is waived
	// by the repl source advancing the ack with its own tail (crash-stop
	// single-failure model: with zero followers there is nobody to
	// promote, so gating would buy nothing and block everything). Zero
	// disables the gate (async replication, the pre-failover behavior).
	ReplAckBound time.Duration

	// Repl, when set, attaches the replication scoreboard: the catalogue
	// gains the repl series, /healthz applies the follower lag rule, and on
	// a follower GET_AT is gated on the safe-read watermark.
	Repl *ReplState

	// Telemetry, when set, adds latency histograms, the event tracer and
	// span capture (telemetry.go), and the counter catalogue is registered
	// into its registry instead of a private one. New installs the WAL
	// flush observer on Config.WAL; a Telemetry instance serves exactly one
	// Server.
	Telemetry *Telemetry

	// Logf receives connection-level diagnostics. Nil discards them.
	Logf func(format string, args ...any)
}

// Defaults for Config's zero values.
const (
	DefaultMaxBatch   = 64
	DefaultQueueDepth = 1024
	DefaultMaxRetries = 10

	// MaxShards bounds Config.Shards: past the core count lanes only add
	// scheduling overhead, and per-conn ring memory scales with the product
	// of connections and lanes.
	MaxShards = 64
)

// Server serves the wire protocol over accepted connections.
type Server struct {
	cfg Config

	mu         sync.Mutex
	listeners  map[net.Listener]struct{}
	conns      map[*serverConn]struct{}
	inShutdown atomic.Bool
	wg         sync.WaitGroup

	// readOnly starts as Config.ReadOnly and flips on failover promotion.
	readOnly atomic.Bool

	// gc is the group committer; nil when serving without durability.
	gc *groupCommitter

	// lanes is the single-writer partition fabric; runners hold each lane's
	// server-side policy (session, WAL handle, scratch). Built in New,
	// stopped once by closeLanes during Shutdown.
	lanes     *shard.Set
	runners   []*laneRunner
	lanesOnce sync.Once

	// crossMu serializes cross-shard coordinators: overlapping lane subsets
	// parked in arbitrary order would deadlock otherwise.
	crossMu sync.Mutex

	m metrics
	// reg holds the counter catalogue (registerCatalogue); with a
	// Telemetry it is the Telemetry's registry, so /metrics scrapes the
	// catalogue next to the histograms.
	reg *telemetry.Registry
}

// metrics is the server-wide counter set. Workers add deltas after every
// execution unit, so reads are race-free and never touch live sessions.
// Each atomic is exported exactly once, by registerCatalogue.
type metrics struct {
	connsTotal  atomic.Uint64
	connsActive atomic.Int64

	gets, puts, inserts, deletes atomic.Uint64
	txns, txnOps, statsOps       atomic.Uint64

	batches, batchedOps atomic.Uint64
	// Cross-shard coordination: TXNs that spanned lanes, Ordo-merged
	// cross-shard reads, their optimistic retries, the reads refused with
	// NOT_YET because the interfering commit fell inside the uncertainty
	// window, and the reads that spent their optimistic passes and parked
	// the involved lanes.
	crossTxns, crossReads     atomic.Uint64
	crossRetries, crossNotYet atomic.Uint64
	crossParkedReads          atomic.Uint64
	busy                      atomic.Uint64
	degraded                  atomic.Uint64
	protoErrs                 atomic.Uint64
	evictions                 atomic.Uint64
	panics                    atomic.Uint64

	commits, aborts           atomic.Uint64
	clockCmps, clockUncertain atomic.Uint64

	walFlushes, walRecords atomic.Uint64
	walDeviceErrors        atomic.Uint64
	// walUnackedWrites counts writes that committed in the in-memory engine
	// but were answered ERR because the log could not make them durable:
	// until restart they are visible to readers despite never being acked
	// (DESIGN.md §10), so operators can see how much unlogged state a
	// degraded engine is serving.
	walUnackedWrites atomic.Uint64
}

// sessCounters is one engine session's counters as of its last flush into
// the server metrics.
type sessCounters struct{ commits, aborts, cmps, uncertain uint64 }

// flushSession adds sess's counter deltas since *last to the metrics. Only
// the session's owner goroutine calls it, so the plain session counters
// stay race-free.
func (m *metrics) flushSession(sess db.Session, last *sessCounters) {
	commits, aborts := sess.Stats()
	m.commits.Add(commits - last.commits)
	m.aborts.Add(aborts - last.aborts)
	last.commits, last.aborts = commits, aborts
	if ch, ok := sess.(db.ClockHealth); ok {
		cmps, unc := ch.ClockStats()
		m.clockCmps.Add(cmps - last.cmps)
		m.clockUncertain.Add(unc - last.uncertain)
		last.cmps, last.uncertain = cmps, unc
	}
}

// New validates cfg and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	} else if cfg.Shards > MaxShards {
		cfg.Shards = MaxShards
	}
	s := &Server{
		cfg:       cfg,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*serverConn]struct{}),
	}
	s.readOnly.Store(cfg.ReadOnly)
	if cfg.WAL != nil {
		// Durable serving needs the engine's own commit timestamps so
		// replay order matches commit order; probe a throwaway session.
		if _, ok := cfg.DB.NewSession().(db.CommitTS); !ok {
			return nil, fmt.Errorf("server: durable serving requires commit timestamps; protocol %v does not expose them (use OCC, OCC_ORDO, HEKATON, or HEKATON_ORDO)", cfg.DB.Protocol())
		}
		s.gc = newGroupCommitter(s, cfg.WAL)
	}
	// The lane fabric: one runner (engine session + WAL append stream) per
	// shard, then the goroutine set that drains connection rings into them.
	// Runners must exist before NewSet starts the goroutines — a lane could
	// drain a batch immediately.
	s.runners = make([]*laneRunner, s.cfg.Shards)
	for i := range s.runners {
		s.runners[i] = &laneRunner{srv: s, id: i, sess: cfg.DB.NewSession(), log: s.newWALStream(int32(i))}
	}
	s.lanes = shard.NewSet(s.cfg.Shards, func(lane int, b *shard.Batch) uint64 {
		return s.runners[lane].exec(b)
	})
	s.reg = telemetry.NewRegistry()
	if t := cfg.Telemetry; t != nil {
		if !t.bound.CompareAndSwap(false, true) {
			s.closeLanes()
			return nil, errors.New("server: Telemetry already bound to a Server")
		}
		s.reg = t.reg
		if cfg.WAL != nil {
			cfg.WAL.SetObserver(t.WALFlushObserver())
		}
	}
	s.registerCatalogue()
	return s, nil
}

// spanRing returns the node's distributed-tracing span ring, nil when
// tracing is off (no Telemetry, or EnableTracing never called).
func (s *Server) spanRing() *span.Ring {
	if s.cfg.Telemetry == nil {
		return nil
	}
	return s.cfg.Telemetry.spans
}

// Degraded reports whether the WAL device has failed: the server still
// serves reads from the intact in-memory engine but refuses writes, and
// the admin /healthz endpoint turns non-200.
func (s *Server) Degraded() bool {
	return s.gc != nil && s.gc.failed() != nil
}

// ReadOnly reports whether mutating ops are currently refused.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// SetReadOnly flips write refusal at runtime — the failover promotion
// (false) and demotion (true) switch. In-flight batches finish under the
// old setting; only ops that start after the flip observe it.
func (s *Server) SetReadOnly(ro bool) { s.readOnly.Store(ro) }

// NoteReplAck records that a follower of the current incarnation has
// durably acknowledged the stream through LSN seq; write acks gated by
// Config.ReplAckBound release once their covering flush is acknowledged.
// No-op on a server without a WAL.
func (s *Server) NoteReplAck(seq uint64) {
	if s.gc != nil {
		s.gc.noteReplAck(seq)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections from ln until Shutdown (returning nil) or a
// fatal accept error. Multiple Serve calls on different listeners are
// allowed.
func (s *Server) Serve(ln net.Listener) error {
	// Register under the lock Shutdown holds while closing listeners:
	// checking inShutdown before taking s.mu would let a listener slip in
	// concurrently with Shutdown and keep accepting after the drain.
	s.mu.Lock()
	if s.inShutdown.Load() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()

	var delay time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.inShutdown.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// Transient accept failure: back off briefly and keep
				// serving instead of tearing the listener down.
				if delay == 0 {
					delay = 5 * time.Millisecond
				} else if delay *= 2; delay > 250*time.Millisecond {
					delay = 250 * time.Millisecond
				}
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		s.startConn(nc)
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// startConn registers and launches one connection's goroutine pair.
func (s *Server) startConn(nc net.Conn) {
	c := newServerConn(s, nc)
	s.mu.Lock()
	if s.inShutdown.Load() {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()

	s.m.connsTotal.Add(1)
	s.m.connsActive.Add(1)
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		c.readLoop()
	}()
	go func() {
		defer s.wg.Done()
		defer func() {
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			s.m.connsActive.Add(-1)
		}()
		c.workLoop()
	}()
}

// Shutdown gracefully drains the server: listeners stop accepting, every
// connection finishes the requests it has already read — responses flushed
// — and then closes. It returns ctx's error if the drain outlives it, in
// which case remaining connections are closed hard.
func (s *Server) Shutdown(ctx context.Context) error {
	s.inShutdown.Store(true)
	s.mu.Lock()
	for ln := range s.listeners {
		ln.Close()
	}
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.beginDrain()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.closeLanes()
		s.stopWAL()
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		s.closeLanes()
		s.stopWAL()
		return ctx.Err()
	}
}

// closeLanes stops the lane goroutines and releases their WAL handles.
// Called after every connection worker has exited (no new submissions) and
// before stopWAL (anything a lane appended still reaches the final flush).
// Once-guarded: Shutdown can run without Serve ever having been called.
func (s *Server) closeLanes() {
	s.lanesOnce.Do(func() {
		s.lanes.Close()
		for _, r := range s.runners {
			if r.log.wh != nil {
				r.log.wh.Close()
			}
			r.flushSessionStats()
		}
	})
}

// stopWAL runs the group committer's final flush and stops its flusher.
// Called after every connection has drained, so no commit races the close.
func (s *Server) stopWAL() {
	if s.gc != nil {
		s.gc.closeAndWait()
	}
}

// Catalogue reads every ordod_* integer series — the server's whole
// counter and gauge catalogue, registered once in registerCatalogue — in
// registration order. STATS, /varz and ordod's drain document all render
// from it, and /metrics renders the same registry, so no copy of a counter
// exists that could drift from the others.
func (s *Server) Catalogue() []telemetry.Sample { return s.reg.Uints("ordod_") }

// Varz is the catalogue as one JSON document: every series name mapped to
// its value, plus "protocol" and, when a Monitor is attached, its
// clock-health snapshot under "clock_health". The admin /varz endpoint
// serves it and ordod writes it as its -health-json drain document.
func (s *Server) Varz() map[string]any {
	doc := map[string]any{"protocol": s.cfg.DB.Protocol().String()}
	for _, smp := range s.Catalogue() {
		doc[smp.Series] = smp.Value
	}
	if m := s.cfg.Monitor; m != nil {
		doc["clock_health"] = m.Snapshot()
	}
	return doc
}

// validateOp pre-checks one simple op against the configured schema.
func (s *Server) validateOp(r *wire.Request) error {
	if len(s.cfg.Schema.Tables) == 0 {
		return nil
	}
	if int(r.Table) >= len(s.cfg.Schema.Tables) {
		return fmt.Errorf("table %d out of range", r.Table)
	}
	if r.Op == wire.OpPut || r.Op == wire.OpInsert {
		if want := s.cfg.Schema.Tables[r.Table].Cols; len(r.Vals) != want {
			return fmt.Errorf("table %d row width %d, want %d", r.Table, len(r.Vals), want)
		}
	}
	return nil
}
