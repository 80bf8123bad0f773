package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"ordo/internal/db"
	"ordo/internal/telemetry/span"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

// errWALClosed reports a commit racing server shutdown: the flusher exited
// before the batch's timestamp became durable.
var errWALClosed = errors.New("server: wal closed")

// errReplAckTimeout reports a replication-gated write whose followers did
// not acknowledge the covering flush within Config.ReplAckBound. The write
// is locally durable but cannot be acked as committed: under failover, an
// ack the followers never saw could be lost by the very promotion the gate
// exists to survive. It wraps wire.ErrUncertain so the connection layer
// answers UNCERTAIN — an ambiguous, retryable outcome — rather than ERR,
// which clients treat as a definitive rejection.
var errReplAckTimeout = fmt.Errorf("server: follower ack timeout: %w", wire.ErrUncertain)

// replAckPoll is how often a replication-gated waiter rechecks its
// deadline while parked on the condition variable.
const replAckPoll = 25 * time.Millisecond

// groupCommitter sits between committed engine transactions and the
// write-ahead log: it drives wal.Log.Flush from one flusher goroutine and
// lets connection workers block until a flush has covered their own append
// (DESIGN.md §10).
//
// A committed batch's write-set is encoded as one redo record, appended to
// a lane's (or a cross-lane coordinator's) WAL handle at the engine's own
// commit timestamp (so replay order matches commit order machine-wide),
// and the responses are withheld until a flush covers that append. Many
// connections' commits ride one flush: while a flush's fsync is in flight,
// appends accumulate and the next flush covers them all — group commit
// emerges from the device latency itself, with no batching timer.
//
// Durability is tracked per append, not by timestamp. append assigns each
// record a dense sequence number under gc.mu strictly after the record
// lands in its handle buffer, and flushOnce snapshots the latest assigned
// sequence before invoking Flush — so "durableSeq covers my seq" proves my
// record was in a buffer when a successful flush drained them. A timestamp
// high-water mark cannot prove that: a worker descheduled between engine
// commit (cts=T) and its append would see the horizon pass T on the back
// of other connections' commits and ack while its record was still
// buffered, losing an acknowledged write on crash (same-handle timestamp
// ties from AppendAt clamping open the same hole).
//
// Device failure is sticky (see wal.FileDevice: after a failed fsync the
// kernel may have dropped dirty pages, so nothing past it can be trusted).
// The committer refuses further appends, every waiter gets the error, and
// the connection layer answers ERR for unacknowledged writes while serving
// reads from the intact in-memory engine.
type groupCommitter struct {
	srv *Server
	log *wal.Log

	mu         sync.Mutex
	cond       *sync.Cond
	appendSeq  uint64 // last sequence assigned to a buffered append
	durableSeq uint64 // appends with seq <= durableSeq are on the device
	dirty      bool   // appends pending since the last flush
	err        error  // sticky device failure
	closing    bool   // closeAndWait ran; no further appends
	closed     bool   // flusher exited

	// Replication-ack gate (Config.ReplAckBound > 0). flushLSN is the
	// log's durable tail LSN after the last successful flush; replAcked is
	// the highest tail LSN a current-incarnation follower has durably
	// acknowledged (or the tail itself while no follower is subscribed —
	// the repl source waives the gate then). A gated waiter's own record
	// is covered by the flush that released it, so replAcked ≥ that
	// flush's tail proves a follower holds the record.
	replAckBound time.Duration
	flushLSN     uint64
	replAcked    uint64

	// Traced appends awaiting their covering flush: flushOnce drains the
	// entries a successful flush covered into fsync spans. Fixed capacity;
	// overflow drops the span (never blocks or allocates on the commit
	// path) — at any sane sampling rate the pending set is tiny because a
	// flush drains it every cycle.
	pendTraced [64]tracedAppend
	nTraced    int

	done      chan struct{}
	closeOnce sync.Once
}

func newGroupCommitter(s *Server, log *wal.Log) *groupCommitter {
	gc := &groupCommitter{srv: s, log: log, done: make(chan struct{}), replAckBound: s.cfg.ReplAckBound}
	gc.cond = sync.NewCond(&gc.mu)
	go gc.flushLoop()
	return gc
}

// failed returns the sticky device error, if any. Connection workers check
// it before running a write transaction so a dead device degrades to
// reads-only serving instead of committing writes that can never be
// acknowledged.
func (gc *groupCommitter) failed() error {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.err
}

// tracedAppend pairs a durability sequence with the trace ID riding it.
type tracedAppend struct{ seq, trace uint64 }

// append buffers one redo record at the engine commit timestamp (the
// handle may clamp cts up to its watermark; the recorded timestamp is the
// replay order) and wakes the flusher. It returns the record's durability
// sequence, which is what wait must cover — assigned only after the record
// is in its handle buffer, so a flush draining after the assignment is
// guaranteed to carry it — and the recorded timestamp, the durability
// token a write ack carries so a client can later demand read-your-writes
// from a replica. A nonzero trace rides the record to the replication
// source, and the covering flush emits this trace's fsync span.
func (gc *groupCommitter) append(h *wal.Handle, cts uint64, redo []byte, trace uint64) (uint64, uint64, error) {
	gc.mu.Lock()
	if gc.err != nil {
		err := gc.err
		gc.mu.Unlock()
		return 0, 0, err
	}
	if gc.closing {
		gc.mu.Unlock()
		return 0, 0, errWALClosed
	}
	gc.mu.Unlock()
	ts := h.AppendAtTrace(cts, redo, trace)
	gc.mu.Lock()
	gc.appendSeq++
	seq := gc.appendSeq
	gc.dirty = true
	if trace != 0 && gc.nTraced < len(gc.pendTraced) {
		gc.pendTraced[gc.nTraced] = tracedAppend{seq, trace}
		gc.nTraced++
	}
	gc.mu.Unlock()
	gc.cond.Broadcast()
	return seq, ts, nil
}

// wait blocks until the durable sequence reaches seq, the device fails,
// or the flusher shuts down. With the replication-ack gate enabled it then
// additionally waits — bounded by replAckBound — for a follower to
// acknowledge the flush that covered the append.
func (gc *groupCommitter) wait(seq uint64) error {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	for gc.err == nil && gc.durableSeq < seq && !gc.closed {
		gc.cond.Wait()
	}
	switch {
	case gc.durableSeq >= seq:
	case gc.err != nil:
		return gc.err
	default:
		return errWALClosed
	}
	if gc.replAckBound <= 0 {
		return nil
	}
	// The record is durable, so some completed flush covered it; that
	// flush's tail is ≤ the current flushLSN, making flushLSN a
	// (conservative) ack target that provably includes the record.
	target := gc.flushLSN
	if gc.replAcked >= target {
		return nil
	}
	deadline := time.Now().Add(gc.replAckBound)
	for gc.err == nil && !gc.closed && gc.replAcked < target {
		if !time.Now().Before(deadline) {
			return errReplAckTimeout
		}
		// sync.Cond has no timed wait; a short timer re-broadcast bounds
		// how long a waiter can miss its deadline.
		t := time.AfterFunc(replAckPoll, gc.cond.Broadcast)
		gc.cond.Wait()
		t.Stop()
	}
	switch {
	case gc.replAcked >= target:
		return nil
	case gc.err != nil:
		return gc.err
	default:
		return errWALClosed
	}
}

// noteReplAck advances the follower-acknowledged tail and releases gated
// waiters. Called by the repl source on every follower WALACK for the
// current incarnation, and with the flush tail itself while no follower is
// subscribed.
func (gc *groupCommitter) noteReplAck(seq uint64) {
	gc.mu.Lock()
	advanced := seq > gc.replAcked
	if advanced {
		gc.replAcked = seq
	}
	gc.mu.Unlock()
	if advanced {
		gc.cond.Broadcast()
	}
}

// flushLoop is the single flusher goroutine: it waits for dirty appends,
// flushes, advances the durable sequence, and wakes waiters. After
// closeAndWait it performs one final flush and exits.
func (gc *groupCommitter) flushLoop() {
	defer close(gc.done)
	for {
		gc.mu.Lock()
		for !gc.dirty && !gc.closing {
			gc.cond.Wait()
		}
		closing := gc.closing
		gc.dirty = false
		gc.mu.Unlock()

		gc.flushOnce()

		if closing {
			gc.mu.Lock()
			gc.closed = true
			gc.mu.Unlock()
			gc.cond.Broadcast()
			return
		}
	}
}

// flushOnce runs one Log.Flush, folding the outcome into the durable
// sequence, metrics, and the sticky error. The sequence snapshot must be
// taken before Flush is called: every append whose seq it covers had its
// record buffered before the snapshot, so Log.Flush's group-commit
// contract (every Append that returned before Flush began is persisted
// when it returns) makes the whole prefix durable on success.
func (gc *groupCommitter) flushOnce() {
	gc.mu.Lock()
	if gc.err != nil {
		gc.mu.Unlock()
		return // dead device: waiters were already woken with the error
	}
	upTo := gc.appendSeq
	gc.mu.Unlock()

	before := gc.log.Flushed()
	start := time.Now()
	_, err := gc.log.Flush()
	elapsed := time.Since(start)

	if err == nil {
		if delta := gc.log.Flushed() - before; delta > 0 {
			gc.srv.m.walFlushes.Add(1)
			gc.srv.m.walRecords.Add(delta)
		}
	}

	// Traces whose appends this flush covered, drained under gc.mu but
	// recorded after release so the span ring's lock never nests inside it.
	var fsynced [64]uint64
	nFsynced := 0

	gc.mu.Lock()
	if err != nil {
		gc.err = err
		gc.srv.m.walDeviceErrors.Add(1)
		gc.srv.logf("server: wal device failed, degrading to reads-only: %v", err)
	} else {
		if upTo > gc.durableSeq {
			gc.durableSeq = upTo
		}
		if tail := gc.log.Flushed(); tail > gc.flushLSN {
			gc.flushLSN = tail
		}
		kept := 0
		for i := 0; i < gc.nTraced; i++ {
			e := gc.pendTraced[i]
			if e.seq <= upTo {
				fsynced[nFsynced] = e.trace
				nFsynced++
			} else {
				gc.pendTraced[kept] = e
				kept++
			}
		}
		gc.nTraced = kept
	}
	gc.mu.Unlock()
	gc.cond.Broadcast()

	if nFsynced > 0 {
		if ring := gc.srv.spanRing(); ring != nil {
			now, unc := ring.Now()
			for i := 0; i < nFsynced; i++ {
				ring.Record(span.Span{Trace: span.TraceID(fsynced[i]), Stage: span.StageFsync,
					TS: now, Unc: unc, Dur: uint64(elapsed), Lane: -1})
			}
		}
	}
}

// closeAndWait forces a final flush and stops the flusher. Call it only
// after every connection has drained (Shutdown's ordering), so no appends
// race the close.
func (gc *groupCommitter) closeAndWait() {
	gc.closeOnce.Do(func() {
		gc.mu.Lock()
		gc.closing = true
		gc.mu.Unlock()
		gc.cond.Broadcast()
		<-gc.done
	})
}

// runOps executes reqs as one engine transaction on sess, retrying
// conflicts, and writes each op's result through resps — the execute step
// of every lane batch and coordinated TXN. Row-level outcomes are per-op
// statuses (execOp); any other error aborts the attempt and, once retries
// are spent, is returned with nothing committed.
func (s *Server) runOps(sess db.Session, reqs []*wire.Request, resps []*wire.Response) error {
	return db.RunWithRetry(sess, s.cfg.MaxRetries, func(tx db.Tx) error {
		for i, req := range reqs {
			resp, err := s.execOp(tx, req)
			if err != nil {
				return err
			}
			*resps[i] = resp
		}
		return nil
	})
}

// walStream is one WAL append stream and its encode scratch: each lane
// owns one, and each connection owns one for the cross-lane TXNs it
// coordinates. Only its owner goroutine touches it.
type walStream struct {
	srv *Server
	// wh is the append handle; nil when serving without durability.
	wh     *wal.Handle
	lane   int32 // span attribution; -1 for a coordinator
	redo   []byte
	writes []*wire.Request
}

// newWALStream opens an append stream attributed to lane (-1 for a
// coordinator); without a WAL it only collects write-sets.
func (s *Server) newWALStream(lane int32) walStream {
	w := walStream{srv: s, lane: lane}
	if s.gc != nil {
		w.wh = s.gc.log.NewHandle()
	}
	return w
}

// logAcked is the log step of the commit pipeline, run right after a
// transaction on sess committed reqs. It collects the writes the engine
// acked OK and, in durable mode, appends them as ONE redo record at the
// commit timestamp without waiting for the flush, stamping the recorded
// timestamp on their responses as provisional ack tokens (the worker's
// awaitAck confirms or erases them). An append failure erases the acks
// here: the writes committed but the log cannot honor them, so each
// answers ERR and counts under wal_unacked_writes — only this record's
// writes, so records other lanes appended still ack once durable. It
// returns the commit timestamp to publish on the lane boards (0 when no
// write was acked or the engine has no commit timestamps), the durability
// sequence to wait on (0 when nothing was logged), and the append failure.
// The encode buffer is reused: wal.Handle copies the record.
func (w *walStream) logAcked(sess db.Session, reqs []*wire.Request, resps []*wire.Response, trace uint64) (cts, seq uint64, err error) {
	writes := w.writes[:0]
	for i, req := range reqs {
		if isWrite(req.Op) && resps[i].Status == wire.StatusOK {
			writes = append(writes, req)
		}
	}
	w.writes = writes
	cs, ok := sess.(db.CommitTS)
	if len(writes) == 0 || !ok {
		return 0, 0, nil
	}
	cts = cs.LastCommitTS()
	if w.wh == nil {
		return cts, 0, nil
	}
	var ts uint64
	if w.redo, err = AppendRedo(w.redo[:0], writes); err == nil {
		seq, ts, err = w.srv.gc.append(w.wh, cts, w.redo, trace)
	}
	if err != nil {
		for i, req := range reqs {
			if isWrite(req.Op) && resps[i].Status == wire.StatusOK {
				*resps[i] = wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr}
			}
		}
		w.srv.m.walUnackedWrites.Add(uint64(len(writes)))
		return cts, 0, err
	}
	for i, req := range reqs {
		if isWrite(req.Op) && resps[i].Status == wire.StatusOK {
			resps[i].TS = ts
		}
	}
	if ring := w.srv.spanRing(); ring != nil && trace != 0 {
		now, unc := ring.Now()
		ring.Record(span.Span{Trace: span.TraceID(trace), Stage: span.StageWALAppend,
			TS: now, Unc: unc, Lane: w.lane})
	}
	return cts, seq, nil
}

// maxRedoOps bounds a decoded redo record's op count; a committed run is at
// most MaxBatch simple ops or one TXN's wire.MaxTxnOps, both far below it.
const maxRedoOps = 1 << 20

// AppendRedo flattens a committed run's write-set into one redo payload
// appended to dst: a uvarint op count, then each op as a
// uvarint-length-prefixed request encoding. Reusing the wire codec means
// the redo format inherits its validation and fuzz coverage; appending to a
// caller-owned buffer means the group-commit path encodes every record into
// scratch it already owns. Each op's length prefix is reserved at maximum
// varint width, the op encoded in place, and the prefix backfilled with the
// payload shifted down — one buffer, no per-op staging allocation.
func AppendRedo(dst []byte, ops []*wire.Request) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for _, op := range ops {
		base := len(dst)
		const reserve = binary.MaxVarintLen32
		for i := 0; i < reserve; i++ {
			dst = append(dst, 0)
		}
		p, err := wire.AppendRequest(dst, op)
		if err != nil {
			return dst[:0], err
		}
		dst = p
		n := len(dst) - base - reserve
		w := binary.PutUvarint(dst[base:], uint64(n))
		if w < reserve {
			copy(dst[base+w:], dst[base+reserve:])
			dst = dst[:base+w+n]
		}
	}
	return dst, nil
}

// DecodeRedo parses one redo payload back into its write-set.
func DecodeRedo(data []byte) ([]wire.Request, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, errors.New("server: redo: bad op count")
	}
	data = data[k:]
	if n > maxRedoOps || n > uint64(len(data)) {
		return nil, fmt.Errorf("server: redo: implausible op count %d", n)
	}
	ops := make([]wire.Request, 0, n)
	for i := uint64(0); i < n; i++ {
		sz, k := binary.Uvarint(data)
		if k <= 0 || sz > uint64(len(data)-k) {
			return nil, fmt.Errorf("server: redo: op %d: bad length", i)
		}
		op, err := wire.DecodeRequest(data[k : k+int(sz)])
		if err != nil {
			return nil, fmt.Errorf("server: redo: op %d: %w", i, err)
		}
		ops = append(ops, op)
		data = data[k+int(sz):]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("server: redo: %d trailing bytes", len(data))
	}
	return ops, nil
}

// ReplayStats summarizes one startup replay.
type ReplayStats struct {
	// Records is the redo records applied.
	Records int
	// Ops is the total write ops inside them.
	Ops int
	// Anomalies counts ops whose expected engine outcome did not hold (a
	// PUT on a missing row, an INSERT over an existing one, a DELETE of a
	// missing row). Replay applies them as upserts so it is idempotent, but
	// a non-zero count on a replay into an empty engine means the log and
	// the acknowledged history disagree — worth surfacing.
	Anomalies int
}

// Replay applies recovered redo records to an engine in log order. The
// records must already be the recovery-canonical sequence (wal.Recover's
// output: deduped, timestamp-ordered, verified). Each record replays as
// one transaction, matching the atomicity the original commit had.
func Replay(d db.DB, recs []wal.Record) (ReplayStats, error) {
	var st ReplayStats
	if len(recs) == 0 {
		return st, nil
	}
	sess := d.NewSession()
	for i := range recs {
		r := &recs[i]
		ops, err := DecodeRedo(r.Data)
		if err != nil {
			return st, fmt.Errorf("server: replay LSN %d: %w", r.LSN, err)
		}
		err = db.RunWithRetry(sess, DefaultMaxRetries, func(tx db.Tx) error {
			for j := range ops {
				if err := replayOp(tx, &ops[j], &st); err != nil {
					return fmt.Errorf("op %d (%v): %w", j, ops[j].Op, err)
				}
			}
			return nil
		})
		if err != nil {
			return st, fmt.Errorf("server: replay LSN %d: %w", r.LSN, err)
		}
		st.Records++
		st.Ops += len(ops)
	}
	return st, nil
}

// replayOp applies one logged write as an idempotent upsert. The
// insert-vs-update decision is made by reading first rather than by
// catching errors, because engines may defer duplicate detection to commit
// time (OCC buffers inserts); Tx reads see the transaction's own buffered
// writes, so in-record sequences (insert then put of one key) still
// dispatch correctly. Row-level surprises are tolerated (and counted):
// replay must converge on the logged state even if a previous partial
// replay already applied a prefix.
func replayOp(tx db.Tx, op *wire.Request, st *ReplayStats) error {
	table, key := int(op.Table), op.Key
	_, rerr := tx.Read(table, key)
	exists := rerr == nil
	if rerr != nil && !errors.Is(rerr, db.ErrNotFound) {
		return rerr
	}
	switch op.Op {
	case wire.OpPut:
		if !exists {
			st.Anomalies++
			return tx.Insert(table, key, op.Vals)
		}
		return tx.Update(table, key, op.Vals)
	case wire.OpInsert:
		if exists {
			st.Anomalies++
			return tx.Update(table, key, op.Vals)
		}
		return tx.Insert(table, key, op.Vals)
	case wire.OpDelete:
		if !exists {
			st.Anomalies++
			return nil
		}
		return tx.Delete(table, key)
	}
	return fmt.Errorf("server: replay: unexpected op %v in redo record", op.Op)
}
