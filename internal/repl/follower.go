package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"ordo/internal/db"
	"ordo/internal/server"
	"ordo/internal/telemetry/span"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// Reconnect pacing defaults: the delay starts at DefaultRetryEvery,
// doubles per consecutive failure up to DefaultRetryMax, and resets after
// any productive session.
const (
	DefaultRetryEvery = 250 * time.Millisecond
	DefaultRetryMax   = 2 * time.Second
)

// Position is a follower's durable stream cursor: the last leader
// (incarnation, seq) whose record is appended to the local WAL and
// replayed into the engine, and the fencing epoch it was applied under.
type Position struct {
	Inc   uint64 `json:"inc"`
	Seq   uint64 `json:"seq"`
	Epoch uint64 `json:"epoch"`
}

// Fenced is the error a Session returns when the leader refused the
// subscription with a REJECT frame: the regimes disagree. It carries the
// rejecting leader's view so the caller can converge — adopt the higher
// epoch, truncate the local log to (PrevInc, PrevSeq) if this node's WAL
// runs past it, and resubscribe.
type Fenced struct {
	// Epoch is the rejecting leader's fencing epoch.
	Epoch uint64
	// PrevInc and PrevSeq are where the rejecting leader's regime began.
	PrevInc, PrevSeq uint64
	// Addr is the rejecting leader's client-facing serving address.
	Addr string
}

func (e *Fenced) Error() string {
	return fmt.Sprintf("repl: fenced by leader at epoch %d (regime start %d/%d)", e.Epoch, e.PrevInc, e.PrevSeq)
}

// errStaleFrame reports a mid-stream frame from an older epoch than the
// one this follower adopted — a zombie leader still writing to the link.
var errStaleFrame = errors.New("repl: frame from a stale epoch")

// FollowerConfig configures a Follower.
type FollowerConfig struct {
	// Addr is the leader's replication listen address.
	Addr string
	// DB is the live engine the apply loop replays into; the serving
	// server must be read-only so this loop is the engine's only writer.
	DB db.DB
	// Log is the follower's own durable WAL: every leader record is
	// appended (at the leader's commit timestamp) and flushed before it is
	// replayed or acknowledged, so a restart recovers from local disk and
	// promotion is just a restart without the follower flag.
	Log *wal.Log
	// State is the shared scoreboard; applied counters, lag, contact and
	// the safe-read watermark are published into it.
	State *server.ReplState
	// Telemetry, when set, records per-batch apply latency. Optional.
	Telemetry *server.Telemetry
	// Spans, when set, records a repl_apply span for every traced record
	// after it is durable locally and replayed into the engine — the stamp
	// a cross-node merger joins against the leader's repl_ship span.
	// Optional.
	Spans *span.Ring
	// StateFile persists the Position cursor: a two-slot record updated
	// in place and fsynced before every ack (see cursor.go). A lost or
	// stale-low cursor only costs a resend — replay is idempotent — but
	// the epoch it records feeds the bootstrap decision, so every write is
	// durable before the follower acts on it.
	StateFile string
	// Boundary reports the follower's own Ordo uncertainty window in clock
	// ticks, already widened for clock-health anomalies by the caller. The
	// effective window is the max of this and the leader's advertised one.
	// Optional (0).
	Boundary func() uint64
	// Epoch is the fencing epoch this follower believes current at
	// construction (from its WAL headers); the cursor's persisted epoch
	// and STATUS frames can only raise it.
	Epoch uint64
	// RetryEvery is the initial reconnect backoff; ≤ 0 means
	// DefaultRetryEvery. RetryMax caps the doubling; ≤ 0 means
	// DefaultRetryMax.
	RetryEvery time.Duration
	RetryMax   time.Duration
	// DialTimeout bounds each dial; ≤ 0 means 3 s.
	DialTimeout time.Duration
	// Logf receives operational messages. Optional.
	Logf func(format string, args ...any)
}

// Follower tails a leader: it subscribes from its durable cursor, appends
// every streamed record to its own WAL, replays it into the engine, and
// maintains the safe-read watermark W = appliedTS − effective uncertainty
// window. The GentleRain-style argument for W (DESIGN.md §13): records
// apply in leader log order, which within an incarnation is commit
// timestamp order, and any commit the leader has not yet streamed carries a
// timestamp above its current clock minus the uncertainty window — so once
// appliedTS reaches T, no record with timestamp ≤ T − window can still be
// in flight, and a read as of that bound sees a frozen prefix.
type Follower struct {
	cfg   FollowerConfig
	h     *wal.Handle
	pos   Position
	epoch uint64 // adopted fencing epoch; only ever raised

	// The session loop owns pos and epoch from a single goroutine; the
	// failover layer's probe handlers read them concurrently via
	// Position/Epoch, which serve this snapshot instead.
	pubMu    sync.Mutex
	pubPos   Position
	pubEpoch uint64

	leaderBoundary uint64
	leaderInc      uint64
	leaderTail     uint64
	productive     bool // current session handled at least one frame

	recsBuf []wal.Record
	cursor  *cursorFile // nil without a StateFile
}

// NewFollower builds a Follower, loading the durable cursor from
// cfg.StateFile when it exists. Close releases the file.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Addr == "" || cfg.DB == nil || cfg.Log == nil {
		return nil, fmt.Errorf("repl: Follower requires Addr, DB and Log")
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = DefaultRetryEvery
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = DefaultRetryMax
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	f := &Follower{cfg: cfg, h: cfg.Log.NewHandle()}
	if cfg.StateFile != "" {
		c, pos, err := openCursor(cfg.StateFile)
		switch {
		case errors.Is(err, errCursorCorrupt):
			// A corrupt cursor is recoverable: resume from (0, 0) and let
			// idempotent replay absorb the resend.
			cfg.Logf("repl: cursor %s: %v, resuming from scratch", cfg.StateFile, err)
		case err != nil:
			return nil, err
		}
		f.cursor, f.pos = c, pos
	}
	f.epoch = cfg.Epoch
	if f.pos.Epoch > f.epoch {
		f.epoch = f.pos.Epoch
	}
	f.publish()
	return f, nil
}

// Close releases the cursor file. Call it once no Session or Converge can
// run any more.
func (f *Follower) Close() error {
	if f.cursor == nil {
		return nil
	}
	return f.cursor.close()
}

// publish snapshots the cursor and epoch for cross-goroutine readers.
// Called by the session goroutine after every mutation.
func (f *Follower) publish() {
	f.pubMu.Lock()
	f.pubPos, f.pubEpoch = f.pos, f.epoch
	f.pubMu.Unlock()
}

// Position returns the current durable cursor. Safe to call from any
// goroutine.
func (f *Follower) Position() Position {
	f.pubMu.Lock()
	defer f.pubMu.Unlock()
	return f.pubPos
}

// Epoch returns the fencing epoch the follower has adopted so far. Safe
// to call from any goroutine.
func (f *Follower) Epoch() uint64 {
	f.pubMu.Lock()
	defer f.pubMu.Unlock()
	return f.pubEpoch
}

// AdoptEpoch raises the follower's epoch (a lower value is ignored) —
// called by the failover layer, between Sessions, after it learns a new
// regime out of band.
func (f *Follower) AdoptEpoch(e uint64) {
	if e > f.epoch {
		f.epoch = e
		f.publish()
	}
}

// Retarget points the next Session at a different leader address. Call it
// only between Sessions, from the goroutine that drives them — the
// failover layer's re-election path.
func (f *Follower) Retarget(addr string) { f.cfg.Addr = addr }

// Converge reacts to a Fenced rejection from a newer regime: adopt its
// epoch and reset the stream cursor to origin, because the promoted
// leader's log speaks its own (incarnation, seq) coordinates — the old
// cursor is meaningless there. The full re-backfill this triggers is
// idempotent (server.Replay upserts in order) and, under the single-
// failure model, cannot lose anything: a follower that held records past
// the new leader's regime start would have out-positioned it in the
// election. Rejections from an older regime (a stale leader probed by a
// newer follower) are ignored.
func (f *Follower) Converge(e *Fenced) error {
	if e.Epoch <= f.epoch {
		return nil
	}
	f.cfg.Logf("repl: converging on epoch %d regime (was %d): resetting cursor (%d, %d)",
		e.Epoch, f.epoch, f.pos.Inc, f.pos.Seq)
	f.epoch = e.Epoch
	f.pos = Position{Epoch: e.Epoch}
	f.publish()
	return f.persistPos()
}

// Run tails the leader until ctx is done, reconnecting (and resuming by
// cursor) across leader restarts and link failures. The delay between
// sessions starts at RetryEvery and doubles per consecutive failure up to
// RetryMax, with ±25% jitter so a fleet of followers does not reconnect in
// lockstep; a productive session (any frame handled) resets it.
func (f *Follower) Run(ctx context.Context) error {
	delay := f.cfg.RetryEvery
	for {
		f.productive = false
		if err := f.Session(ctx); err != nil {
			f.cfg.Logf("repl: session: %v", err)
			var fenced *Fenced
			if errors.As(err, &fenced) {
				if cerr := f.Converge(fenced); cerr != nil {
					return cerr
				}
			}
		}
		if f.productive {
			delay = f.cfg.RetryEvery
		} else if delay *= 2; delay > f.cfg.RetryMax {
			delay = f.cfg.RetryMax
		}
		jittered := delay*3/4 + time.Duration(rand.Int63n(int64(delay)/2))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(jittered):
		}
	}
}

// Session runs one leader connection: subscribe from the cursor, then
// apply WALBATCH frames and track WATERMARK heartbeats until the link or
// ctx dies. A *Fenced return means the leader refused the subscription
// from a different regime; the failover layer (not this loop) decides how
// to converge. One reconnect attempt is counted on the scoreboard per
// call.
func (f *Follower) Session(ctx context.Context) error {
	if st := f.cfg.State; st != nil {
		st.NoteReconnect()
	}
	d := net.Dialer{Timeout: f.cfg.DialTimeout}
	nc, err := d.DialContext(ctx, "tcp", f.cfg.Addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	stop := context.AfterFunc(ctx, func() { nc.Close() })
	defer stop()

	w := &frameWriter{nc: nc, epoch: f.epoch}
	if err := w.writeMsg(&wire.ReplMsg{Kind: wire.ReplSubscribe, Inc: f.pos.Inc, Seq: f.pos.Seq}); err != nil {
		return err
	}
	f.cfg.Logf("repl: subscribed to %s after (%d, %d) epoch %d", f.cfg.Addr, f.pos.Inc, f.pos.Seq, f.epoch)

	br := newFrameReader(nc)
	var buf []byte
	for {
		buf, err = wire.ReadReplFrame(br, buf)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		m, err := wire.DecodeReplMsg(buf)
		if err != nil {
			return err
		}
		// The epoch fence, follower side: frames below the adopted epoch
		// come from a fenced zombie leader and end the session; a higher
		// epoch on any frame is the new regime announcing itself.
		if m.Epoch != 0 && m.Epoch < f.epoch {
			if st := f.cfg.State; st != nil {
				st.NoteFencing()
			}
			return fmt.Errorf("%w: %d < %d", errStaleFrame, m.Epoch, f.epoch)
		}
		// Only frames that prove live leader stewardship count as contact.
		// Stale frames (above) and REJECTs are refusals, not heartbeats:
		// counting them would keep resetting ContactAge and starve the
		// election while a zombie leader keeps refusing us.
		if st := f.cfg.State; st != nil && m.Kind != wire.ReplReject {
			st.NoteContact()
		}
		// A higher epoch on a streamed frame is the new regime announcing
		// itself — EXCEPT on a REJECT, whose epoch must reach Converge
		// un-adopted: adopting it here would make the later Converge a
		// no-op and leave the stale cursor pointed into the new leader's
		// unrelated coordinate space.
		if m.Epoch > f.epoch && m.Kind != wire.ReplReject {
			f.cfg.Logf("repl: adopting epoch %d (was %d)", m.Epoch, f.epoch)
			f.epoch = m.Epoch
			w.epoch = m.Epoch
			f.publish()
		}
		f.productive = true
		switch m.Kind {
		case wire.ReplStatus:
			// The regime descriptor sent ahead of the stream: remember
			// where client writes should be redirected.
			if st := f.cfg.State; st != nil && m.Addr != "" {
				st.SetLeaderAddr(m.Addr)
			}
			f.leaderInc, f.leaderTail = m.Inc, m.Seq
		case wire.ReplReject:
			if st := f.cfg.State; st != nil {
				st.NoteFencing()
			}
			return &Fenced{Epoch: m.Epoch, PrevInc: m.PrevInc, PrevSeq: m.PrevSeq, Addr: m.Addr}
		case wire.ReplBatch:
			if err := f.applyBatch(&m); err != nil {
				return err
			}
			if err := w.writeMsg(&wire.ReplMsg{Kind: wire.ReplAck, Inc: f.pos.Inc, Seq: f.pos.Seq}); err != nil {
				return err
			}
			f.publishLag()
		case wire.ReplWatermark:
			f.leaderBoundary = m.BoundaryTicks
			f.leaderInc, f.leaderTail = m.Inc, m.Seq
			f.publishLag()
			f.publishWatermark()
		default:
			return fmt.Errorf("repl: unexpected %v from leader", m.Kind)
		}
	}
}

// applyBatch makes one streamed batch durable and visible, in that order:
// append to the local WAL at the leader's commit timestamps, flush, replay
// into the engine, persist the cursor, publish the watermark. A crash
// between any two steps re-applies a suffix on restart — harmless, because
// replay is an ordered idempotent upsert and the cursor is never ahead of
// the local log.
func (f *Follower) applyBatch(m *wire.ReplMsg) error {
	start := time.Now()
	recs := f.recsBuf[:0]
	var bytes int
	var maxTS uint64
	for i := range m.Recs {
		r := &m.Recs[i]
		// Overlap from a conservative leader resume: already applied.
		if m.Inc == f.pos.Inc && r.Seq <= f.pos.Seq {
			continue
		}
		f.h.AppendAt(r.TS, r.Data)
		recs = append(recs, wal.Record{TS: r.TS, H: int(r.H), Seq: r.HSeq, Data: r.Data})
		bytes += len(r.Data)
		if r.TS > maxTS {
			maxTS = r.TS
		}
	}
	f.recsBuf = recs[:0]
	if len(recs) == 0 {
		return nil
	}
	if _, err := f.cfg.Log.Flush(); err != nil {
		return fmt.Errorf("repl: local wal flush: %w", err)
	}
	if _, err := server.Replay(f.cfg.DB, recs); err != nil {
		return fmt.Errorf("repl: apply: %w", err)
	}
	f.pos = Position{Inc: m.Inc, Seq: m.Recs[len(m.Recs)-1].Seq, Epoch: f.epoch}
	f.publish()
	if err := f.persistPos(); err != nil {
		return err
	}
	if st := f.cfg.State; st != nil {
		st.NoteApplied(len(recs), bytes, maxTS)
	}
	f.publishWatermark()
	if t := f.cfg.Telemetry; t != nil {
		t.ObserveReplApply(time.Since(start))
	}
	// Apply spans stamp the point where the record is both durable locally
	// and visible to reads — Dur covers the whole batch's append+flush+
	// replay, so per-record cost attribution stays honest about batching.
	if ring := f.cfg.Spans; ring != nil {
		var now, unc uint64
		for i := range m.Recs {
			r := &m.Recs[i]
			if r.Trace == 0 {
				continue
			}
			if now == 0 {
				now, unc = ring.Now()
			}
			ring.Record(span.Span{Trace: span.TraceID(r.Trace), Stage: span.StageApply,
				TS: now, Unc: unc, Dur: uint64(time.Since(start)), Lane: -1})
		}
	}
	return nil
}

// persistPos makes the cursor durable: one in-place slot write and fsync.
// It runs after the batch is flushed and replayed and before the ack, so
// the cursor is never ahead of the local log, and the epoch it carries
// feeds the bootstrap epoch max.
func (f *Follower) persistPos() error {
	if f.cursor == nil {
		return nil
	}
	return f.cursor.store(f.pos)
}

// publishLag posts how far the apply cursor trails the leader's advertised
// tail. Catching up on an older incarnation counts as the full tail.
func (f *Follower) publishLag() {
	st := f.cfg.State
	if st == nil || f.leaderInc == 0 {
		return
	}
	switch {
	case f.pos.Inc == f.leaderInc && f.pos.Seq >= f.leaderTail:
		st.SetLag(0)
	case f.pos.Inc == f.leaderInc:
		st.SetLag(f.leaderTail - f.pos.Seq)
	default:
		st.SetLag(f.leaderTail)
	}
}

// publishWatermark recomputes W = appliedTS − max(own boundary, leader
// boundary) and publishes it. The scoreboard keeps W monotone, so a
// transient widening of either uncertainty window narrows future advances
// without retracting reads already allowed.
func (f *Follower) publishWatermark() {
	st := f.cfg.State
	if st == nil {
		return
	}
	eff := f.leaderBoundary
	if f.cfg.Boundary != nil {
		if own := f.cfg.Boundary(); own > eff {
			eff = own
		}
	}
	applied := st.AppliedTS()
	if applied > eff {
		st.SetWatermark(applied - eff)
	}
}

// newFrameReader wraps a socket for wire frame reads.
func newFrameReader(nc net.Conn) wire.FrameReader {
	return bufio.NewReaderSize(nc, 64<<10)
}
