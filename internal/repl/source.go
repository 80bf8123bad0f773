// Package repl ships a leader's write-ahead log to followers and maintains
// the timestamp watermark that makes a follower's reads consistent
// (DESIGN.md §13).
//
// The stream is addressed by (incarnation, seq): the WAL device incarnation
// a record was written under and its dense per-incarnation sequence. Both
// views of the log agree on these coordinates — a live wal.Log assigns
// dense LSNs in (TS, H, Seq) merge order, and wal.Backfill reproduces
// exactly that order from the segments on disk — so a follower can resume
// from a position it learned from either. Resends at or before a follower's
// position are harmless (server.Replay is an ordered idempotent upsert);
// gaps are the only hazard, and the Source's subscribe path is built so
// none can occur: a subscriber is registered and the stream tail snapshotted
// under one lock, disk backfill covers everything at or below the snapshot,
// and the live feed covers everything above it.
package repl

import (
	"fmt"
	"net"
	"sync"
	"time"

	"ordo/internal/server"
	"ordo/internal/telemetry/span"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// Defaults for SourceConfig's zero values.
const (
	// DefaultSendBuffer is the flushed-batch backlog a follower may
	// accumulate before the leader sheds it.
	DefaultSendBuffer = 256
	// DefaultWatermarkEvery is the WATERMARK heartbeat cadence.
	DefaultWatermarkEvery = 100 * time.Millisecond
	// batchTargetBytes is the soft WALBATCH payload size; records accumulate
	// until the next one would push a frame past it (a single oversized
	// record still ships alone, up to wire.MaxReplFrame).
	batchTargetBytes = 1 << 20
)

// SourceConfig configures a leader-side Source.
type SourceConfig struct {
	// Dir is the WAL directory, read (never written) to backfill a
	// follower that resumes from before this process's incarnation.
	Dir string
	// Log is the live log; the Source installs itself as its RecordSink.
	Log *wal.Log
	// Incarnation is the WAL device incarnation this process appends under.
	Incarnation uint64
	// State is the shared scoreboard; follower counts and worst-follower
	// lag are published into it. Optional.
	State *server.ReplState
	// Boundary reports the leader's current Ordo uncertainty window in
	// clock ticks, shipped on WATERMARK heartbeats. Optional (0).
	Boundary func() uint64
	// Epoch is the fencing epoch this leader serves under. It is stamped
	// on every outgoing frame and matched against each subscriber's hello:
	// a subscriber announcing a different non-zero epoch is refused with a
	// REJECT frame instead of a stream (DESIGN.md §15). Zero-epoch hellos
	// are accepted for fresh followers and pre-epoch builds.
	Epoch uint64
	// PrevInc and PrevSeq are the stream position this leader's regime
	// started from — for a promoted leader, its replication cursor at
	// takeover. REJECT and STATUS frames carry them so a fenced ex-leader
	// knows exactly where to truncate its unshipped suffix before
	// resubscribing.
	PrevInc, PrevSeq uint64
	// Advertise is this leader's client-facing serving address, carried on
	// STATUS and REJECT frames so peers learn where writes go. Optional.
	Advertise string
	// AckAdvance receives the highest current-incarnation LSN some
	// follower has durably acknowledged — the feed for the server's
	// replication-ack gate (server.Server.NoteReplAck). While no follower
	// is subscribed it is called with the flushed tail itself, waiving the
	// gate: under the crash-stop single-failure model there is no copy to
	// wait for, and blocking every write would turn a follower outage into
	// a total one. Optional.
	AckAdvance func(seq uint64)
	// HoldAckGate, when true, suppresses the no-subscriber waiver of
	// AckAdvance until the FIRST follower subscribes. A leader resuming a
	// regime after its own crash cannot tell "my followers have not
	// re-subscribed yet" from "my followers promoted someone else while I
	// was down" — waiving the gate in that window is how a stale resumed
	// leader acks writes the surviving regime never sees. Once one
	// follower has subscribed the normal waiver rules apply for the rest
	// of the Source's lifetime.
	HoldAckGate bool
	// SendBuffer and WatermarkEvery default per the package constants.
	SendBuffer     int
	WatermarkEvery time.Duration
	// Spans, when set, records a repl_ship span for every traced record
	// handed to a subscriber on the live feed. Backfill records come from
	// disk, where trace IDs are not persisted, so they never ship spans.
	// Optional.
	Spans *span.Ring
	// Logf receives operational messages. Optional.
	Logf func(format string, args ...any)
}

// Source streams the WAL to subscribed followers. Create one with
// NewSource before the server starts flushing, Serve it on a dedicated
// listener, Close it at shutdown.
type Source struct {
	cfg SourceConfig

	mu       sync.Mutex
	tailSeq  uint64 // last LSN delivered by the sink (current incarnation)
	subs     map[*subscriber]struct{}
	closed   bool
	holdGate bool // no-subscriber waiver suppressed until first subscribe

	quit chan struct{}
	wg   sync.WaitGroup

	lnMu sync.Mutex
	ln   net.Listener
}

// subscriber is one follower connection's leader-side state.
type subscriber struct {
	ch       chan []wal.Record
	quit     chan struct{}
	quitOnce sync.Once

	mu     sync.Mutex
	ackInc uint64
	ackSeq uint64
}

// kill tears the subscriber down once; safe from any goroutine.
func (sub *subscriber) kill() { sub.quitOnce.Do(func() { close(sub.quit) }) }

func (sub *subscriber) setAck(inc, seq uint64) {
	sub.mu.Lock()
	sub.ackInc, sub.ackSeq = inc, seq
	sub.mu.Unlock()
}

func (sub *subscriber) ack() (inc, seq uint64) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.ackInc, sub.ackSeq
}

// NewSource builds a Source over a live log and installs it as the log's
// record sink. Install happens here — before any serving traffic flushes —
// so the in-memory tail position and the disk contents can never disagree
// about what the live feed covers.
func NewSource(cfg SourceConfig) (*Source, error) {
	if cfg.Log == nil {
		return nil, fmt.Errorf("repl: Source requires a live wal.Log")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("repl: Source requires the WAL directory")
	}
	if cfg.SendBuffer <= 0 {
		cfg.SendBuffer = DefaultSendBuffer
	}
	if cfg.WatermarkEvery <= 0 {
		cfg.WatermarkEvery = DefaultWatermarkEvery
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Source{
		cfg:      cfg,
		subs:     make(map[*subscriber]struct{}),
		quit:     make(chan struct{}),
		holdGate: cfg.HoldAckGate,
	}
	cfg.Log.SetSink(s)
	return s, nil
}

// DeliverFlushed implements wal.RecordSink. It runs under the log's flush
// lock, so it only advances the tail and hands the batch to each
// subscriber's buffered channel — a follower whose buffer is full is shed
// (its connection dies; it reconnects and resumes by position) rather than
// allowed to stall the flush path. The slice is the flusher's merged batch,
// retainable per the sink contract, and is shared read-only by every
// subscriber.
func (s *Source) DeliverFlushed(recs []wal.Record) {
	if len(recs) == 0 {
		return
	}
	s.mu.Lock()
	s.tailSeq = recs[len(recs)-1].LSN
	waive := len(s.subs) == 0 && !s.holdGate
	tail := s.tailSeq
	for sub := range s.subs {
		select {
		case sub.ch <- recs:
		default:
			s.cfg.Logf("repl: shedding slow follower (%d batches behind)", cap(sub.ch))
			sub.kill()
		}
	}
	s.mu.Unlock()
	if waive && s.cfg.AckAdvance != nil {
		// No subscriber holds (or will ever ack) this flush: waive the
		// replication-ack gate so the leader keeps serving alone.
		s.cfg.AckAdvance(tail)
	}
}

// Tail returns the stream tail: the last (incarnation, seq) flushed.
func (s *Source) Tail() (inc, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Incarnation, s.tailSeq
}

// Serve accepts follower subscriptions on ln until Close. It owns ln.
func (s *Source) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.closedNow() {
		s.lnMu.Unlock()
		ln.Close()
		return fmt.Errorf("repl: source closed")
	}
	s.ln = ln
	s.lnMu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return err
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(nc)
		}()
	}
}

func (s *Source) closedNow() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// Close stops accepting, tears down every subscriber, and waits for their
// goroutines.
func (s *Source) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for sub := range s.subs {
		sub.kill()
	}
	s.mu.Unlock()
	close(s.quit)
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.lnMu.Unlock()
	s.wg.Wait()
}

// register adds a subscriber and snapshots the stream tail under the same
// lock — the gap-free splice: every record with seq ≤ gate is on disk
// (the sink runs only after a successful device write), and every record
// with seq > gate will arrive on sub.ch.
func (s *Source) register(sub *subscriber) (gate uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The first subscription ends any resume hold on the ack gate: from
	// here on a real follower acks, and an empty subs set again means "the
	// follower died", which the waiver exists for.
	s.holdGate = false
	if s.closed {
		return 0, false
	}
	s.subs[sub] = struct{}{}
	return s.tailSeq, true
}

func (s *Source) unregister(sub *subscriber) {
	s.mu.Lock()
	delete(s.subs, sub)
	last := len(s.subs) == 0
	tail := s.tailSeq
	s.mu.Unlock()
	if last && s.cfg.AckAdvance != nil {
		// The last follower left: waive the gate for whatever it had not
		// yet acknowledged, or writes in flight would hang until timeout.
		s.cfg.AckAdvance(tail)
	}
}

// publishAck feeds the replication-ack gate: the highest LSN of the
// current incarnation that any subscribed follower has durably
// acknowledged (quorum of one).
func (s *Source) publishAck() {
	if s.cfg.AckAdvance == nil {
		return
	}
	s.mu.Lock()
	var best uint64
	for sub := range s.subs {
		if inc, seq := sub.ack(); inc == s.cfg.Incarnation && seq > best {
			best = seq
		}
	}
	s.mu.Unlock()
	if best > 0 {
		s.cfg.AckAdvance(best)
	}
}

// Status describes this leader to a peer probe or a fresh subscriber: the
// stream tail, the regime start position and the serving address. The
// epoch is stamped at write time like every other frame.
func (s *Source) Status() *wire.ReplMsg {
	inc, seq := s.Tail()
	return &wire.ReplMsg{
		Kind:    wire.ReplStatus,
		Inc:     inc,
		Seq:     seq,
		Role:    uint64(server.RoleLeader),
		PrevInc: s.cfg.PrevInc,
		PrevSeq: s.cfg.PrevSeq,
		Addr:    s.cfg.Advertise,
	}
}

// serveConn demuxes one replication connection by its hello frame: a
// SUBSCRIBE starts a follower stream, a STATUS probe is answered with this
// leader's coordinates and closed.
func (s *Source) serveConn(nc net.Conn) {
	defer nc.Close()
	br := newFrameReader(nc)
	m, _, err := wire.ReadReplHello(br, nil)
	if err != nil {
		s.cfg.Logf("repl: %v: bad hello: %v", nc.RemoteAddr(), err)
		return
	}
	switch m.Kind {
	case wire.ReplStatus:
		w := &frameWriter{nc: nc, epoch: s.cfg.Epoch}
		_ = w.writeMsg(s.Status())
	case wire.ReplSubscribe:
		s.ServeSubscriber(nc, br, &m)
	default:
		s.cfg.Logf("repl: %v: unexpected hello %v", nc.RemoteAddr(), m.Kind)
	}
}

// ServeSubscriber runs one follower subscription whose SUBSCRIBE hello m
// was already read from br — the entry point for the failover node's
// listener demux as well as serveConn. It blocks until the subscription
// ends; teardown closes nc (that is what unblocks a stalled write), so a
// caller's own deferred Close is a harmless double-close.
//
// The epoch fence lives here: a subscriber announcing a non-zero epoch
// different from the leader's is answered with one REJECT frame carrying
// the leader's epoch, regime start position and serving address, then
// dropped. A stale ex-leader uses the position to truncate its unshipped
// suffix before trying again; a subscriber from a *newer* regime learns
// from the same frame that this leader is the stale one.
func (s *Source) ServeSubscriber(nc net.Conn, br wire.FrameReader, m *wire.ReplMsg) {
	afterInc, afterSeq := m.Inc, m.Seq
	w := &frameWriter{nc: nc, epoch: s.cfg.Epoch}
	if m.Epoch != 0 && m.Epoch != s.cfg.Epoch {
		if st := s.cfg.State; st != nil {
			st.NoteFencing()
		}
		s.cfg.Logf("repl: %v: fencing subscriber at epoch %d (serving epoch %d)",
			nc.RemoteAddr(), m.Epoch, s.cfg.Epoch)
		rej := s.Status()
		rej.Kind = wire.ReplReject
		_ = w.writeMsg(rej)
		return
	}

	sub := &subscriber{
		ch:   make(chan []wal.Record, s.cfg.SendBuffer),
		quit: make(chan struct{}),
	}
	gate, ok := s.register(sub)
	if !ok {
		return
	}
	defer s.unregister(sub)
	sub.setAck(afterInc, afterSeq)
	if st := s.cfg.State; st != nil {
		st.AddFollowers(1)
		defer st.AddFollowers(-1)
	}
	// A blocked Write does not watch sub.quit; closing the socket is what
	// unblocks it when the subscriber is shed or the Source closes.
	go func() {
		<-sub.quit
		nc.Close()
	}()
	// Ack reader: the follower's apply cursor feeds lag accounting. Any
	// read error kills the subscription (the follower reconnects).
	go func() {
		defer sub.kill()
		var buf []byte
		var err error
		for {
			buf, err = wire.ReadReplFrame(br, buf)
			if err != nil {
				return
			}
			m, err := wire.DecodeReplMsg(buf)
			if err != nil || m.Kind != wire.ReplAck {
				return
			}
			sub.setAck(m.Inc, m.Seq)
			s.publishAck()
		}
	}()

	s.cfg.Logf("repl: %v: subscribed after (%d, %d), tail (%d, %d) epoch %d",
		nc.RemoteAddr(), afterInc, afterSeq, s.cfg.Incarnation, gate, s.cfg.Epoch)

	// The STATUS frame ahead of the stream tells the subscriber the regime
	// it is joining: epoch to adopt, leader serving address, regime start.
	if err := w.writeMsg(s.Status()); err != nil {
		s.cfg.Logf("repl: %v: status: %v", nc.RemoteAddr(), err)
		sub.kill()
		return
	}
	if err := s.sendBackfill(w, afterInc, afterSeq, gate); err != nil {
		s.cfg.Logf("repl: %v: backfill: %v", nc.RemoteAddr(), err)
		sub.kill()
		return
	}

	tick := time.NewTicker(s.cfg.WatermarkEvery)
	defer tick.Stop()
	for {
		select {
		case <-sub.quit:
			return
		case recs := <-sub.ch:
			// Drain greedily so a pipelined burst ships as few frames as
			// the batch-size target allows.
			for {
				if err := s.sendLive(w, recs); err != nil {
					s.cfg.Logf("repl: %v: send: %v", nc.RemoteAddr(), err)
					sub.kill()
					return
				}
				select {
				case recs = <-sub.ch:
				default:
					recs = nil
				}
				if recs == nil {
					break
				}
			}
		case <-tick.C:
			if err := s.sendWatermark(w); err != nil {
				s.cfg.Logf("repl: %v: watermark: %v", nc.RemoteAddr(), err)
				sub.kill()
				return
			}
			s.publishLag()
		}
	}
}

// sendBackfill ships the verified on-disk suffix after (afterInc,
// afterSeq): all prior incarnations past the position, plus the current
// incarnation's records up to the registration gate (everything above the
// gate arrives on the live feed).
func (s *Source) sendBackfill(w *frameWriter, afterInc, afterSeq, gate uint64) error {
	recs, err := wal.Backfill(s.cfg.Dir, afterInc, afterSeq)
	if err != nil {
		return err
	}
	var batch []wire.ReplRecord
	var batchInc uint64
	var bytes int
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := w.writeMsg(&wire.ReplMsg{
			Kind: wire.ReplBatch,
			Inc:  batchInc,
			Seq:  batch[len(batch)-1].Seq,
			Recs: batch,
		})
		batch, bytes = batch[:0], 0
		return err
	}
	for _, sr := range recs {
		// Current-incarnation records above the registration gate are the
		// duplication window of the splice: flushed after register()
		// snapshotted the tail, they are on disk by the time Backfill
		// reads it AND queued on sub.ch (the subscriber was in s.subs
		// before their DeliverFlushed ran — both happen under s.mu). Ship
		// them from the live feed only, never from backfill.
		if sr.Inc == s.cfg.Incarnation && sr.Rec.LSN > gate {
			continue
		}
		if len(batch) > 0 && (sr.Inc != batchInc ||
			len(batch) >= wire.MaxReplBatch || bytes+len(sr.Rec.Data) > batchTargetBytes) {
			if err := flush(); err != nil {
				return err
			}
		}
		batchInc = sr.Inc
		batch = append(batch, wire.ReplRecord{
			Seq:  sr.Rec.LSN,
			TS:   sr.Rec.TS,
			H:    uint32(sr.Rec.H),
			HSeq: sr.Rec.Seq,
			Data: sr.Rec.Data,
		})
		bytes += len(sr.Rec.Data)
	}
	return flush()
}

// sendLive ships one flushed batch from the current incarnation.
func (s *Source) sendLive(w *frameWriter, recs []wal.Record) error {
	// Ship spans are stamped before the first frame is written: a follower
	// may receive, apply and stamp its apply span before this goroutine runs
	// again, and a ship timestamp taken after the write could then fall
	// certainly after that apply. One clock read covers the whole delivery;
	// the spans are recorded only once every frame is on the socket.
	var shipTS, shipUnc uint64
	ring := s.cfg.Spans
	if ring != nil {
		shipTS, shipUnc = ring.Now()
	}
	var batch []wire.ReplRecord
	var bytes int
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := w.writeMsg(&wire.ReplMsg{
			Kind: wire.ReplBatch,
			Inc:  s.cfg.Incarnation,
			Seq:  batch[len(batch)-1].Seq,
			Recs: batch,
		})
		batch, bytes = batch[:0], 0
		return err
	}
	for i := range recs {
		r := &recs[i]
		if len(batch) >= wire.MaxReplBatch || (len(batch) > 0 && bytes+len(r.Data) > batchTargetBytes) {
			if err := flush(); err != nil {
				return err
			}
		}
		batch = append(batch, wire.ReplRecord{
			Seq:   r.LSN,
			TS:    r.TS,
			H:     uint32(r.H),
			HSeq:  r.Seq,
			Trace: r.Trace,
			Data:  r.Data,
		})
		bytes += len(r.Data)
	}
	if err := flush(); err != nil {
		return err
	}
	if ring == nil {
		return nil
	}
	for i := range recs {
		if recs[i].Trace != 0 {
			ring.Record(span.Span{Trace: span.TraceID(recs[i].Trace), Stage: span.StageShip,
				TS: shipTS, Unc: shipUnc, Lane: -1})
		}
	}
	return nil
}

func (s *Source) sendWatermark(w *frameWriter) error {
	var boundary uint64
	if s.cfg.Boundary != nil {
		boundary = s.cfg.Boundary()
	}
	inc, seq := s.Tail()
	return w.writeMsg(&wire.ReplMsg{
		Kind:          wire.ReplWatermark,
		Inc:           inc,
		Seq:           seq,
		HorizonTS:     s.cfg.Log.Horizon(),
		BoundaryTicks: boundary,
	})
}

// publishLag posts the worst follower's unacknowledged backlog (in records
// of the current incarnation) to the scoreboard. A follower still catching
// up on a prior incarnation counts as the full current tail behind.
func (s *Source) publishLag() {
	st := s.cfg.State
	if st == nil {
		return
	}
	s.mu.Lock()
	tail := s.tailSeq
	var worst uint64
	for sub := range s.subs {
		inc, seq := sub.ack()
		lag := tail
		if inc == s.cfg.Incarnation && seq < tail {
			lag = tail - seq
		} else if inc == s.cfg.Incarnation {
			lag = 0
		}
		if lag > worst {
			worst = lag
		}
	}
	s.mu.Unlock()
	st.SetLag(worst)
}

// frameWriter serializes replication messages onto one socket; writeMsg is
// called only from the subscription's serve goroutine. Every frame is
// stamped with the writer's fencing epoch.
type frameWriter struct {
	nc    net.Conn
	buf   []byte
	epoch uint64
}

func (w *frameWriter) writeMsg(m *wire.ReplMsg) error {
	m.Epoch = w.epoch
	p, err := wire.AppendReplMsg(w.buf[:0], m)
	if err != nil {
		return err
	}
	w.buf = p
	return wire.WriteReplFrame(w.nc, p)
}
