package server

import (
	"errors"
	"fmt"
	"runtime/debug"

	"ordo/internal/db"
	"ordo/internal/shard"
	"ordo/internal/telemetry/span"
	"ordo/internal/wire"
)

// errLanePanic is the batch-level failure of an Atomic batch whose
// execution panicked the lane's engine session.
var errLanePanic = errors.New("server: lane panicked")

// laneRunner is the server-side policy for one shard lane: it owns the
// lane's engine session and WAL append stream, and executes the batches
// the lane goroutine drains from connection rings. The session is touched
// only by the lane goroutine, matching db.Session's single-goroutine
// contract — the single-writer discipline that keeps a partition's writes
// free of engine-level conflicts between lanes.
//
// Durability stays asynchronous here: the runner appends a batch's redo
// record (getting a group-commit sequence) but never waits for the flush —
// the submitting connection worker waits, so a slow fsync stalls one
// connection's pipeline, not the whole partition.
type laneRunner struct {
	srv  *Server
	id   int
	sess db.Session
	// log is the lane's WAL append stream; its handle (nil without a WAL)
	// is closed by Server.closeLanes after the lane goroutine exits.
	log walStream

	// last is the lane session's counters at the previous flush.
	last sessCounters
}

// exec is the lane's shard.Exec callback. It returns the engine commit
// timestamp to publish on the lane's ordering board — only for a batch
// that acked a write, so reads never move the boards a cross-shard read
// checks; the lane publishes it before completing the batch, so
// publication always precedes the ack.
func (r *laneRunner) exec(b *shard.Batch) (publish uint64) {
	defer func() {
		if p := recover(); p != nil {
			r.srv.m.panics.Add(1)
			r.srv.tracer().Record("panic", fmt.Sprintf("lane %d: %v", r.id, p), 0)
			r.srv.logf("server: lane %d: panic: %v\n%s", r.id, p, debug.Stack())
			// Answer ERR for every slot the batch carries so the stream
			// stays ordered, then replace the poisoned session: the lane
			// must keep serving every other connection's partition.
			failBatch(b, errLanePanic)
			b.Panicked = true
			r.sess = r.srv.cfg.DB.NewSession()
			r.last = sessCounters{}
			publish = 0
		}
	}()
	// Traced batches time the lane's execution with the span clock; the
	// decision was made by the submitting worker, so untraced batches pay
	// only the nil/zero check.
	ring := r.srv.spanRing()
	var laneStart, laneUnc uint64
	traced := ring != nil && b.Trace != 0
	if traced {
		laneStart, laneUnc = ring.Now()
	}
	if b.Kind == shard.Ops {
		publish = r.execOps(b)
	} else if b.Err = r.srv.runOps(r.sess, b.Reqs, b.Resps); b.Err == nil {
		publish, b.Seq, b.Err = r.log.logAcked(r.sess, b.Reqs, b.Resps, b.Trace)
	}
	r.flushSessionStats()
	if traced {
		now, unc := ring.Now()
		var dur uint64
		if now > laneStart {
			dur = now - laneStart
		}
		ring.Record(span.Span{Trace: span.TraceID(b.Trace), Stage: span.StageLane,
			TS: laneStart, Unc: laneUnc, Dur: dur, Lane: int32(r.id)})
		if publish != 0 {
			// The commit span sits at the commit timestamp itself when the
			// node can convert engine ticks to the span clock's scale.
			ts := ring.ConvTicks(publish)
			if ts == 0 {
				ts = now
			}
			ring.Record(span.Span{Trace: span.TraceID(b.Trace), Stage: span.StageCommit,
				TS: ts, Unc: unc, Lane: int32(r.id)})
		}
	}
	return publish
}

// failBatch answers ERR in every slot of b and fails it with err, logging
// nothing.
func failBatch(b *shard.Batch, err error) {
	for i := range b.Resps {
		*b.Resps[i] = wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr}
	}
	b.Seq, b.Err = 0, err
}

// execOps runs one lane's slice of a pipelined simple-op run as a single
// engine transaction — the batching that amortizes timestamp allocation,
// now also across connections that routed into the same lane. A batch
// that cannot commit falls back to per-op transactions so every op gets an
// attributable status, counted under degraded rather than batches; each
// committed write then logs its own record, and the worker's single
// durability wait on the batch's highest sequence covers them all.
func (r *laneRunner) execOps(b *shard.Batch) (publish uint64) {
	srv := r.srv
	err := srv.runOps(r.sess, b.Reqs, b.Resps)
	if err == nil {
		srv.m.batches.Add(1)
		srv.m.batchedOps.Add(uint64(len(b.Reqs)))
		return r.logAcked(b, b.Reqs, b.Resps)
	}
	srv.m.degraded.Add(1)
	if len(b.Reqs) == 1 {
		*b.Resps[0] = wire.Response{Kind: wire.RespEmpty, Status: wire.StatusOf(err)}
		return 0
	}
	for i := range b.Reqs {
		reqs, resps := b.Reqs[i:i+1], b.Resps[i:i+1]
		if err := srv.runOps(r.sess, reqs, resps); err != nil {
			*resps[0] = wire.Response{Kind: wire.RespEmpty, Status: wire.StatusOf(err)}
			continue
		}
		publish = max(publish, r.logAcked(b, reqs, resps))
	}
	return publish
}

// logAcked logs one committed transaction of an Ops batch on the lane's
// stream and folds its durability sequence into the batch for the worker's
// awaitAck. An append failure needs no folding: it already answered the
// transaction's writes ERR.
func (r *laneRunner) logAcked(b *shard.Batch, reqs []*wire.Request, resps []*wire.Response) uint64 {
	cts, seq, _ := r.log.logAcked(r.sess, reqs, resps, b.Trace)
	b.Seq = max(b.Seq, seq)
	return cts
}

// flushSessionStats adds the lane session's counter deltas to server
// metrics. Only the lane goroutine calls it, so the plain session counters
// stay race-free.
func (r *laneRunner) flushSessionStats() { r.srv.m.flushSession(r.sess, &r.last) }
