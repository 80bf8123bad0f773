package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"ordo/internal/core"
	"ordo/internal/db"
	"ordo/internal/shard"
	"ordo/internal/telemetry/span"
	"ordo/internal/wire"
)

// errWorkerPanic is the internal sentinel a recovered worker panic turns
// into so the normal connection-teardown path runs.
var errWorkerPanic = errors.New("server: worker panicked")

// maxRecycledBuf bounds the frame buffers kept on the connection's free
// list: a rare giant frame gets its slab dropped to the GC instead of
// pinning MaxFrame-sized memory for the connection's lifetime.
const maxRecycledBuf = 64 << 10

// item is one queued unit of work. Exactly one of the flags is set for
// non-request items; otherwise payload holds a raw undecoded frame and op
// its peeked opcode byte. The reader does no decoding — the worker decodes
// into its arena so a pipelined run costs no per-request allocations — but
// the opcode is always payload byte 0, so the reader can peek it for run
// classification without parsing.
type item struct {
	payload []byte
	op      wire.Op
	// shed marks an op that arrived past the queue bound: the worker
	// answers BUSY in order without touching the engine.
	shed bool
	// protoErr marks a frame-level read failure: the worker answers ERR and
	// the connection closes after it (the stream offset is unrecoverable).
	protoErr bool
	// enq is the enqueue time for the queue-wait histogram; zero when
	// telemetry is off, so the plain path never calls time.Now.
	enq time.Time
}

// serverConn is one connection's state: a reader goroutine that frames and
// enqueues, and a worker goroutine that decodes, executes, responds in
// request order, and flushes when the pipeline goes idle. The engine
// session is touched only by the worker, matching db.Session's
// single-goroutine contract.
type serverConn struct {
	srv *Server
	nc  net.Conn
	// br is the reader goroutine's buffered stream; bw is the worker's
	// response batcher. Splitting the wire.Conn pair this way lets the
	// worker coalesce a pipelined window's responses into one Write while
	// the reader owns framing alone.
	br *bufio.Reader
	bw *wire.BatchWriter

	// sess is the worker's own engine session. Since the shard-lane
	// refactor it is reserved for the paths that cannot ride a single
	// lane: reads-only serving (follower mode, failed WAL device) and
	// cross-shard transactions, where the worker acts as coordinator
	// while the involved lanes are parked. Partitioned writes always go
	// through lanes, preserving the single-writer-per-partition
	// discipline.
	sess db.Session
	// log is the worker's coordinator WAL append stream: cross-shard
	// transactions log their whole write-set as ONE record here, so
	// recovery can never replay half a transfer. Its handle (nil without a
	// WAL) is closed in workLoop teardown so the slot recycles.
	log walStream
	// ports is the connection's submission side to the shard lanes: one
	// bounded SPSC ring per lane, worker-owned.
	ports *shard.Ports
	// tel is the connection's histogram shard set (nil when telemetry is
	// off). Only the worker observes into it; closed in workLoop teardown
	// so the counts retire into the parent histograms.
	tel *connShards

	mu      sync.Mutex
	cond    *sync.Cond
	pending []item
	// freeBufs recycles frame payload buffers between the worker (which
	// returns them after a run) and the reader (which fills them), so a
	// steady-state pipeline reads every frame into memory it already owns.
	freeBufs [][]byte
	// readerDone means no further items will be enqueued (EOF, error, or
	// drain); the worker exits once pending empties.
	readerDone bool
	draining   bool
	// evicting marks a connection the server decided to get rid of (idle
	// client, write stall): the deadline errors that follow are expected
	// and must not count as protocol faults.
	evicting bool

	// Worker-owned scratch, reused across runs so the execBatch path is
	// allocation-free in steady state. arena backs decoded rows and TXN
	// sub-ops; its carvings live until the next run's Reset, which is after
	// every response of the current run has been encoded.
	arena  wire.Arena
	reqs   []wire.Request
	resps  []wire.Response
	runBuf []item

	// Lane-dispatch scratch, reused across runs: per-lane request/response
	// pointer groups (the scatter), the reusable batch per lane, the
	// submitted set of the current run (the gather), involved-lane marks
	// for cross-shard transactions, the parked coordinator's pointer view
	// of a TXN, and publication-board snapshots for the cross-shard read
	// stability check.
	greqs    [][]*wire.Request
	gresps   [][]*wire.Response
	used     []int
	lbatch   []*shard.Batch
	subm     []*shard.Batch
	laneMark []bool
	txnReqs  []*wire.Request
	txnResps []*wire.Response
	tsV1     []uint64
	tsV2     []uint64
	// Span capture (DESIGN.md §16). spans is the node's ring, cached from
	// Telemetry at accept (nil disables capture entirely); sampler mints
	// this worker's head-sampling decisions. spanBuf is fixed scratch the
	// worker fills speculatively every run — clock reads and struct stores
	// only, so the sampling-off serve path stays zero-alloc — and publishes
	// to the ring only when the run turns out sampled or force-traced.
	// spanTrace is the run's trace ID (0 = unsampled), spanForce marks a
	// run that must trace regardless of the head decision (slow, ERR or
	// UNCERTAIN outcome, cross-shard, decode failure), runStartNS anchors
	// the decode span's duration.
	spans      *span.Ring
	sampler    span.Sampler
	spanBuf    [6]span.Span
	spanN      int
	spanTrace  span.TraceID
	spanForce  bool
	runStartNS uint64

	// protoFatal is set by the worker when a well-framed payload fails to
	// decode: the decoded prefix was served, the bad op answered ERR, and
	// nothing past it can be trusted, so the connection must close after a
	// flush.
	protoFatal bool
	// laneFatal is set when a lane panicked executing this connection's
	// batch: the lane survived (answered ERR, replaced its session), but the
	// submitting connection dies after the flush — the panic containment
	// boundary stays the connection, as in the flat design.
	laneFatal bool

	// last is the worker session's counters at the previous flush.
	last sessCounters
}

// hardCap is the absolute pending bound: past it the reader blocks rather
// than queueing even shed markers, so one connection's memory stays O(cap)
// no matter how fast it pumps frames.
func (c *serverConn) hardCap() int { return 2 * c.srv.cfg.QueueDepth }

func newServerConn(s *Server, nc net.Conn) *serverConn {
	c := &serverConn{
		srv:  s,
		nc:   nc,
		br:   bufio.NewReaderSize(nc, 64<<10),
		bw:   wire.NewBatchWriter(nc),
		sess: s.cfg.DB.NewSession(),
		log:  s.newWALStream(-1),
	}
	if s.cfg.Telemetry != nil {
		c.tel = s.cfg.Telemetry.newConnShards()
		if ring := s.cfg.Telemetry.spans; ring != nil {
			c.spans = ring
			c.sampler = s.cfg.Telemetry.newSampler()
		}
	}
	n := s.lanes.N()
	c.ports = s.lanes.NewPorts()
	c.greqs = make([][]*wire.Request, n)
	c.gresps = make([][]*wire.Response, n)
	c.lbatch = make([]*shard.Batch, n)
	c.laneMark = make([]bool, n)
	c.cond = sync.NewCond(&c.mu)
	return c
}

// laneBatch returns the connection's reusable batch for one lane, reset
// for a new submission.
func (c *serverConn) laneBatch(lane int) *shard.Batch {
	b := c.lbatch[lane]
	if b == nil {
		b = shard.NewBatch()
		c.lbatch[lane] = b
	}
	b.Seq, b.Err, b.Panicked = 0, nil, false
	b.Trace = uint64(c.spanTrace)
	return b
}

// beginDrain stops the reader (unblocking a pending read via deadline) and
// wakes the worker so it can finish the queue and close. Requests already
// accepted are still executed and their responses flushed. The deadline is
// set under c.mu so a reader about to arm its idle deadline cannot
// overwrite it (armReadDeadline checks draining under the same lock).
func (c *serverConn) beginDrain() {
	c.mu.Lock()
	c.draining = true
	c.nc.SetReadDeadline(time.Now())
	c.mu.Unlock()
	c.cond.Broadcast()
}

// armReadDeadline arms the reader's idle deadline for the next read. It is
// serialized with beginDrain/abortReader through c.mu: once draining is
// set, their immediate deadline stands.
func (c *serverConn) armReadDeadline() {
	d := c.srv.cfg.IdleTimeout
	c.mu.Lock()
	if !c.draining && d > 0 {
		c.nc.SetReadDeadline(time.Now().Add(d))
	}
	c.mu.Unlock()
}

// armWriteDeadline arms the worker's deadline before a response write or
// flush, so a client that stopped reading cannot park the worker (and its
// engine session) on a full send buffer forever.
func (c *serverConn) armWriteDeadline() {
	if d := c.srv.cfg.WriteTimeout; d > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(d))
	}
}

// evict marks the connection evicted (counted once) and records why.
func (c *serverConn) evict(reason string) {
	c.mu.Lock()
	first := !c.evicting
	c.evicting = true
	c.mu.Unlock()
	if first {
		c.srv.m.evictions.Add(1)
		c.srv.tracer().Record("eviction", c.nc.RemoteAddr().String()+": "+reason, 0)
		c.srv.logf("server: %v: evicting: %s", c.nc.RemoteAddr(), reason)
	}
}

// getBuf pops a recycled frame buffer, or nil when none is free (ReadFrame
// allocates one that will join the cycle once the worker returns it).
func (c *serverConn) getBuf() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.freeBufs); n > 0 {
		b := c.freeBufs[n-1]
		c.freeBufs[n-1] = nil
		c.freeBufs = c.freeBufs[:n-1]
		return b
	}
	return nil
}

// recycleRun returns a finished run's payload buffers to the free list and
// clears the items so nothing pins them.
func (c *serverConn) recycleRun(run []item) {
	c.mu.Lock()
	for i := range run {
		b := run[i].payload
		if b != nil && cap(b) <= maxRecycledBuf && len(c.freeBufs) < c.hardCap() {
			c.freeBufs = append(c.freeBufs, b[:0])
		}
		run[i] = item{}
	}
	c.mu.Unlock()
}

// readLoop reads raw frames and enqueues them until EOF, error, drain, or
// idle eviction. It never decodes payloads: framing is the reader's whole
// job, so a slow decode or execution cannot stall frame intake, and the
// worker's arena owns every decoded byte.
func (c *serverConn) readLoop() {
	defer func() {
		if r := recover(); r != nil {
			c.srv.m.panics.Add(1)
			c.srv.tracer().Record("panic", fmt.Sprintf("reader: %v", r), 0)
			c.srv.logf("server: %v: panic in reader: %v\n%s", c.nc.RemoteAddr(), r, debug.Stack())
			c.finishRead()
		}
	}()
	var batch []item
	for {
		c.armReadDeadline()
		payload, err := wire.ReadFrame(c.br, c.getBuf())
		if err != nil {
			c.classifyReadError(err)
			c.finishRead()
			return
		}
		// PeekOp masks the trace flag: a traced op must classify into the
		// same run kind as its untraced form.
		batch = append(batch[:0], item{payload: payload, op: wire.PeekOp(payload)})
		// Every further frame already whole in the read buffer joins the
		// same wakeup, so a pipelined window reaches the worker at once and
		// folds into one run instead of whatever prefix it popped first.
		for c.frameBuffered() {
			if payload, err = wire.ReadFrame(c.br, c.getBuf()); err != nil {
				break // cannot happen: the frame is buffered and in bounds
			}
			batch = append(batch, item{payload: payload, op: wire.PeekOp(payload)})
		}
		c.enqueue(batch...)
	}
}

// frameBuffered reports whether the read buffer holds a whole in-bounds
// frame, which ReadFrame then returns without touching the socket.
func (c *serverConn) frameBuffered() bool {
	b, _ := c.br.Peek(c.br.Buffered())
	n, k := binary.Uvarint(b)
	return k > 0 && n <= wire.MaxFrame && n <= uint64(len(b)-k)
}

// finishRead marks the reader done and wakes the worker so it can finish
// the queue and close.
func (c *serverConn) finishRead() {
	c.mu.Lock()
	c.readerDone = true
	c.mu.Unlock()
	c.cond.Broadcast()
}

// classifyReadError decides what ended the read loop. EOF, a closed
// socket, and a peer reset are a quiet hangup. A deadline error is quiet
// only when the server itself armed it — a drain or an eviction in
// progress — or when it is the idle deadline firing, which evicts the
// client. An oversize length prefix is a special protocol fault: the
// varint was consumed but the payload was not, so every byte that follows
// would be misparsed as frame headers — the connection is evicted as
// hostile and closes after the ERR. Any other failure (including a timeout
// nobody armed) is an ordinary protocol fault: logged, counted, and
// answered with ERR before the connection closes.
func (c *serverConn) classifyReadError(err error) {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.mu.Lock()
		expected := c.draining || c.evicting
		c.mu.Unlock()
		if expected {
			return // drain/eviction deadline, not a protocol fault
		}
		if d := c.srv.cfg.IdleTimeout; d > 0 {
			c.evict("idle for " + d.String())
			return
		}
	}
	if errors.Is(err, wire.ErrFrameTooBig) {
		c.evict("oversize frame")
	}
	c.srv.m.protoErrs.Add(1)
	c.srv.logf("server: %v: protocol error: %v", c.nc.RemoteAddr(), err)
	c.enqueue(item{protoErr: true})
}

// enqueue appends items in order and wakes the worker once, shedding each
// item that finds the queue past QueueDepth and blocking while it is past
// the hard cap.
func (c *serverConn) enqueue(items ...item) {
	var now time.Time
	if c.tel != nil {
		now = time.Now()
	}
	c.mu.Lock()
	for _, it := range items {
		if len(c.pending) >= c.hardCap() && !c.draining {
			c.cond.Broadcast() // the worker may not have seen this batch yet
			for len(c.pending) >= c.hardCap() && !c.draining {
				c.cond.Wait()
			}
		}
		it.enq = now
		if !it.protoErr && len(c.pending) >= c.srv.cfg.QueueDepth {
			it.shed = true
		}
		c.pending = append(c.pending, it)
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// workLoop pops runs of work, executes them, writes responses in order,
// and flushes whenever the queue goes idle. It owns the write side and the
// engine session exclusively.
func (c *serverConn) workLoop() {
	defer c.nc.Close()
	if c.log.wh != nil {
		defer c.log.wh.Close()
	}
	defer c.tel.close()
	defer c.ports.Close()
	for {
		c.mu.Lock()
		for len(c.pending) == 0 && !c.readerDone {
			c.cond.Wait()
		}
		if len(c.pending) == 0 && c.readerDone {
			c.mu.Unlock()
			// Reader is gone and nothing is queued: flush any buffered
			// responses and finish.
			c.armWriteDeadline()
			c.bw.Flush()
			c.flushSessionStats()
			return
		}
		run, last := c.popRun()
		c.mu.Unlock()
		c.cond.Broadcast() // queue space freed

		// Queue wait ends here: the run is in the worker's hands. The same
		// timestamp starts the service-latency clock.
		var start time.Time
		if c.tel != nil {
			start = time.Now()
			var maxWait time.Duration
			for i := range run {
				w := start.Sub(run[i].enq)
				c.tel.wait.ObserveDuration(w)
				if w > maxWait {
					maxWait = w
				}
			}
			c.beginRunSpans(maxWait)
		}
		c.armWriteDeadline()
		err := c.runOne(run)
		if c.tel != nil {
			d := time.Since(start)
			c.finishRunSpans(d)
			c.observeRun(run, d)
		}
		protoErrTail := run[len(run)-1].protoErr
		c.recycleRun(run)
		if err != nil {
			c.noteWriteError(err)
			c.abortReader()
			c.flushSessionStats()
			return
		}
		c.flushSessionStats()
		if c.protoFatal || c.laneFatal {
			// A worker-detected decode error or a lane panic on this
			// connection's batch: the reader may still be pumping frames, so
			// the flush cannot ride the idle-queue path — push the responses
			// (prefix + ERR) out explicitly, then die.
			c.armWriteDeadline()
			c.bw.Flush()
			c.abortReader()
			return
		}
		if last {
			// The queue looked empty after the pop: flush so the client
			// sees its responses now rather than at the next batch.
			c.armWriteDeadline()
			if err := c.bw.Flush(); err != nil {
				c.noteWriteError(err)
				c.abortReader()
				return
			}
		}
		if protoErrTail {
			// The stream is unrecoverable past a protocol error.
			c.abortReader()
			return
		}
	}
}

// runOne executes one run with panic containment: a request that panics the
// engine (or the server's own execution path) is answered with ERR for the
// whole run, counted, and tears down only this connection — the process and
// the other connections keep serving.
func (c *serverConn) runOne(run []item) (err error) {
	defer func() {
		if r := recover(); r != nil {
			c.srv.m.panics.Add(1)
			c.srv.tracer().Record("panic", fmt.Sprintf("worker: %v", r), 0)
			c.srv.logf("server: %v: panic in worker: %v\n%s", c.nc.RemoteAddr(), r, debug.Stack())
			// Best effort: the run produced no responses yet (responses are
			// written only after the engine returns), so answer ERR for each
			// of its ops to keep the stream ordered, then kill the conn.
			for range run {
				if werr := c.bw.WriteResponse(&wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr}); werr != nil {
					break
				}
			}
			c.bw.Flush()
			err = errWorkerPanic
		}
	}()
	return c.process(run)
}

// noteWriteError classifies a response-path failure: a deadline expiry
// means a client that stopped reading — evict it; anything else is an
// ordinary broken connection.
func (c *serverConn) noteWriteError(err error) {
	if errors.Is(err, errWorkerPanic) {
		return // already logged with its stack
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.evict("write stalled past " + c.srv.cfg.WriteTimeout.String())
		return
	}
	c.srv.logf("server: %v: write: %v", c.nc.RemoteAddr(), err)
}

// Run kinds, by which popRun folds queued items into execution units.
const (
	runAlone  = iota // shed, protocol error, STATS: a run of its own
	runSimple        // pipelined simple ops
	runTxn           // TXN frames
)

// runKind classifies an item by its flags and peeked opcode byte.
func (it *item) runKind() int {
	switch {
	case it.shed || it.protoErr:
		return runAlone
	case it.op.Simple():
		return runSimple
	case it.op == wire.OpTxn:
		return runTxn
	}
	return runAlone
}

// popRun pops the next execution unit under c.mu: one item that runs alone
// (shed, protocol error, STATS) or a maximal contiguous run of simple ops
// or of TXN frames, up to MaxBatch. It reports whether the queue drained.
func (c *serverConn) popRun() ([]item, bool) {
	kind := c.pending[0].runKind()
	n := 1
	if kind != runAlone {
		for n < len(c.pending) && n < c.srv.cfg.MaxBatch && c.pending[n].runKind() == kind {
			n++
		}
	}
	if cap(c.runBuf) < n {
		c.runBuf = make([]item, n)
	}
	run := c.runBuf[:n]
	copy(run, c.pending[:n])
	rest := copy(c.pending, c.pending[n:])
	for i := rest; i < len(c.pending); i++ {
		c.pending[i] = item{} // release request payloads
	}
	c.pending = c.pending[:rest]
	return run, rest == 0
}

// abortReader makes a stuck reader exit so the connection can die: mark
// done, unblock the hard-cap wait, and poison the socket's read side.
func (c *serverConn) abortReader() {
	c.mu.Lock()
	c.draining = true
	c.nc.SetReadDeadline(time.Now())
	c.mu.Unlock()
	c.cond.Broadcast()
}

// flushSessionStats adds the session's counter deltas to server metrics.
// Only the worker calls it, so the plain session counters stay race-free.
func (c *serverConn) flushSessionStats() { c.srv.m.flushSession(c.sess, &c.last) }

// beginRunSpans starts one run's speculative span capture: reset the
// scratch and record the queue span (wait already measured by the caller).
// Everything here is clock reads and stores into fixed scratch — the
// sampling decision has not been made yet, and when the run stays
// unsampled the scratch is simply abandoned, so this costs no allocation.
func (c *serverConn) beginRunSpans(wait time.Duration) {
	if c.spans == nil {
		return
	}
	c.spanTrace, c.spanForce = 0, false
	now, unc := c.spans.Now()
	c.runStartNS = now
	c.spanBuf[0] = span.Span{Stage: span.StageQueue, TS: now, Unc: unc, Dur: uint64(wait), Lane: -1}
	c.spanN = 1
}

// noteDecodeSpans records the decode span and makes the run's head-based
// sampling decision: a client-stamped trace ID wins (and forces the
// trace); otherwise the worker's sampler decides. Called by process once
// the run is decoded — before execution, so lane batches can carry the ID.
func (c *serverConn) noteDecodeSpans(reqs []wire.Request) {
	if c.spans == nil || c.spanN == 0 {
		return
	}
	now, unc := c.spans.Now()
	var dur uint64
	if now > c.runStartNS {
		dur = now - c.runStartNS
	}
	c.spanBuf[c.spanN] = span.Span{Stage: span.StageDecode, TS: now, Unc: unc, Dur: dur, Lane: -1}
	c.spanN++
	for i := range reqs {
		if reqs[i].Trace != 0 {
			c.spanTrace = span.TraceID(reqs[i].Trace)
			c.spanForce = true
			return
		}
	}
	if id, ok := c.sampler.Sample(); ok {
		c.spanTrace = id
	}
}

// noteSpan appends one stage point to the run's span scratch.
func (c *serverConn) noteSpan(stage span.Stage, dur time.Duration) {
	if c.spans == nil || c.spanN == 0 || c.spanN >= len(c.spanBuf) {
		return
	}
	now, unc := c.spans.Now()
	c.spanBuf[c.spanN] = span.Span{Stage: stage, TS: now, Unc: unc, Dur: uint64(dur), Lane: -1}
	c.spanN++
}

// forceTrace ensures the current run has a trace ID and will publish its
// spans — the forced-sampling path for cross-shard transactions. Stages
// that already ran without an ID (a lane batch submitted before the force)
// are simply absent from the trace.
func (c *serverConn) forceTrace() {
	if c.spans == nil {
		return
	}
	c.spanForce = true
	if c.spanTrace == 0 {
		c.spanTrace = c.sampler.ForceID()
	}
}

// finishRunSpans decides the run's fate: a slow run forces tracing; a run
// with a trace ID (head-sampled or forced) stamps the ID across the
// scratch and publishes it to the ring in one batch. An unsampled run
// abandons the scratch — the zero-alloc path.
func (c *serverConn) finishRunSpans(d time.Duration) {
	if c.spans == nil || c.spanN == 0 {
		return
	}
	n := c.spanN
	c.spanN = 0
	if d >= c.srv.cfg.Telemetry.slowOp {
		c.spanForce = true
	}
	if c.spanTrace == 0 {
		if !c.spanForce {
			return
		}
		c.spanTrace = c.sampler.ForceID()
	}
	for i := 0; i < n; i++ {
		c.spanBuf[i].Trace = c.spanTrace
	}
	c.spans.RecordAll(c.spanBuf[:n])
}

// process decodes one run into the worker's arena and executes it, writing
// responses in order. A payload that fails to decode ends the connection:
// the decoded prefix is served normally, the bad op answers ERR, and
// protoFatal tells workLoop to flush and tear down — the frames already
// queued past it are dropped, because a client that framed garbage cannot
// be trusted to have meant them.
func (c *serverConn) process(run []item) error {
	if len(run) == 1 {
		it := &run[0]
		switch {
		case it.shed:
			c.srv.m.busy.Add(1)
			return c.bw.WriteResponse(&wire.Response{Kind: wire.RespEmpty, Status: wire.StatusBusy})
		case it.protoErr:
			return c.bw.WriteResponse(&wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr})
		}
	}
	c.arena.Reset()
	reqs := c.reqs[:0]
	var derr error
	for i := range run {
		req, err := wire.DecodeRequestArena(run[i].payload, &c.arena)
		if err != nil {
			derr = err
			break
		}
		reqs = append(reqs, req)
	}
	c.reqs = reqs
	c.noteDecodeSpans(reqs)
	if len(reqs) == 1 && reqs[0].Op == wire.OpStats {
		resp := c.execStats()
		if err := c.bw.WriteResponse(&resp); err != nil {
			return err
		}
	} else if len(reqs) > 0 {
		var resps []wire.Response
		if reqs[0].Op == wire.OpTxn {
			resps = c.execTxns(reqs)
		} else {
			resps = c.execBatch(reqs)
		}
		for i := range resps {
			if err := c.bw.WriteResponse(&resps[i]); err != nil {
				return err
			}
		}
	}
	if derr != nil {
		c.srv.m.protoErrs.Add(1)
		c.srv.logf("server: %v: protocol error: %v", c.nc.RemoteAddr(), derr)
		c.protoFatal = true
		c.spanForce = true
		return c.bw.WriteResponse(&wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr})
	}
	return nil
}

// scratchResps returns a zeroed response slice of length n backed by the
// worker's reusable buffer; valid until the next call.
func (c *serverConn) scratchResps(n int) []wire.Response {
	if cap(c.resps) < n {
		c.resps = make([]wire.Response, n)
	}
	resps := c.resps[:n]
	for i := range resps {
		resps[i] = wire.Response{}
	}
	return resps
}

// countOp tallies one executed simple op into server metrics.
func (c *serverConn) countOp(op wire.Op) {
	switch op {
	case wire.OpGet, wire.OpGetAt:
		c.srv.m.gets.Add(1)
	case wire.OpPut:
		c.srv.m.puts.Add(1)
	case wire.OpInsert:
		c.srv.m.inserts.Add(1)
	case wire.OpDelete:
		c.srv.m.deletes.Add(1)
	}
}

// countOps tallies a finished run's ops, skipping ops whose final status is
// ERR (schema-validation failures, unattributable engine errors): only ops
// the engine actually answered count as served.
func (c *serverConn) countOps(reqs []wire.Request, resps []wire.Response) {
	for i := range reqs {
		st := resps[i].Status
		if st != wire.StatusErr {
			c.countOp(reqs[i].Op)
		}
		// Failed or ambiguous outcomes force the run's trace: they are the
		// requests an operator most wants a timeline for.
		if c.spans != nil && (st == wire.StatusErr || st == wire.StatusUncertain) {
			c.spanForce = true
		}
	}
}

// execBatch serves a contiguous run of simple ops through the shard
// lanes: the run is scattered by key hash into per-lane batches, each lane
// executes its slice as one engine transaction on its own single-writer
// session (the batching that amortizes timestamp allocation, now also
// across connections), and the worker gathers completions before writing
// responses in request order. Commit/degrade semantics live in the lane
// runner (lane.go).
//
// In durable mode each lane appends its slice's acked write-set as one
// redo record without blocking; the worker's awaitAck then performs the
// run's single durability wait on the highest appended sequence, so one
// fsync still covers the whole pipelined window and a stalled device parks
// this connection, never a lane.
//
// The returned responses are backed by worker scratch and valid until the
// next run.
func (c *serverConn) execBatch(reqs []wire.Request) []wire.Response {
	if c.srv.ReadOnly() && runHasWrites(reqs) {
		// Follower mode: the replication apply loop is the engine's only
		// writer; client writes never touch the engine. Not counted as
		// degraded — this is the configured serving mode, not a failure.
		return c.execReadsOnly(reqs, false)
	}
	if gc := c.srv.gc; gc != nil && gc.failed() != nil && runHasWrites(reqs) {
		return c.execReadsOnly(reqs, true)
	}
	resps := c.scratchResps(len(reqs))
	c.scatter(reqs, resps)
	c.submitGroups(shard.Ops)
	seq, _ := c.gather()
	c.awaitAck(seq, reqs, resps)
	c.countOps(reqs, resps)
	return resps
}

// scatter partitions a run into per-lane request/response pointer groups,
// resetting the previous run's groups first. Group slices are conn scratch
// so the steady-state path allocates nothing.
func (c *serverConn) scatter(reqs []wire.Request, resps []wire.Response) {
	for _, ln := range c.used {
		c.greqs[ln] = c.greqs[ln][:0]
		c.gresps[ln] = c.gresps[ln][:0]
	}
	c.used = c.used[:0]
	lanes := c.srv.lanes
	for i := range reqs {
		ln := lanes.Route(reqs[i].Key)
		if len(c.greqs[ln]) == 0 {
			c.used = append(c.used, ln)
		}
		c.greqs[ln] = append(c.greqs[ln], &reqs[i])
		c.gresps[ln] = append(c.gresps[ln], &resps[i])
	}
}

// submitGroups submits every non-empty scatter group as one batch of the
// given kind, collecting the submitted set for gather. A submit that fails
// (lanes closed — cannot happen while connections drain before lanes, but
// guarded anyway) answers ERR in place and is returned.
func (c *serverConn) submitGroups(kind shard.Kind) (err error) {
	c.subm = c.subm[:0]
	for _, ln := range c.used {
		b := c.laneBatch(ln)
		b.Kind = kind
		b.Reqs, b.Resps = c.greqs[ln], c.gresps[ln]
		if err = c.ports.Submit(ln, b); err != nil {
			for _, rp := range c.gresps[ln] {
				*rp = wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr}
			}
			continue
		}
		c.subm = append(c.subm, b)
	}
	return err
}

// gather waits out every submitted batch and merges their outcomes: the
// highest WAL durability sequence any lane appended (0 when nothing was
// logged) and any Atomic batch's failure.
func (c *serverConn) gather() (seq uint64, err error) {
	for _, b := range c.subm {
		b.Wait()
		seq = max(seq, b.Seq)
		if b.Err != nil {
			err = b.Err
		}
		if b.Panicked {
			c.laneFatal = true
		}
	}
	return seq, err
}

// awaitAck is the ack step of the commit pipeline, shared by every durable
// write shape. It performs the execution unit's single durability wait on
// seq (a zero seq logged nothing) and on failure erases the provisional
// acks in reqs — a run of simple ops or of TXN frames — through unack,
// with the failure's status: ERR for a device failure (the log could not
// honor it — DESIGN.md §10; only these count under wal_unacked_writes) or
// UNCERTAIN for a replication-ack timeout (durable locally, replication
// pending). Writes whose own append failed were already answered ERR by
// the log step.
func (c *serverConn) awaitAck(seq uint64, reqs []wire.Request, resps []wire.Response) error {
	if seq == 0 {
		return nil
	}
	var ackStart time.Time
	if c.tel != nil {
		ackStart = time.Now()
	}
	err := c.srv.gc.wait(seq)
	if c.tel != nil {
		d := time.Since(ackStart)
		c.tel.ack.ObserveDuration(d)
		c.noteSpan(span.StageAck, d)
	}
	if err == nil {
		return nil
	}
	c.spanForce = true
	status := wire.StatusOf(err)
	var flipped uint64
	for i := range reqs {
		flipped += unack(&reqs[i], &resps[i], status)
	}
	if status == wire.StatusErr {
		c.srv.m.walUnackedWrites.Add(flipped)
	}
	return err
}

// unack erases one provisional answer after a failed durability wait and
// returns how many writes it took back: a simple write answered OK answers
// status instead, and a TXN that committed writes answers status as a
// whole (partial results would be unordered fiction). Reads, read-only
// TXNs and answers that already failed stand.
func unack(req *wire.Request, resp *wire.Response, status wire.Status) uint64 {
	if req.Op != wire.OpTxn {
		if isWrite(req.Op) && resp.Status == wire.StatusOK {
			*resp = wire.Response{Kind: wire.RespEmpty, Status: status}
			return 1
		}
		return 0
	}
	if resp.Status != wire.StatusOK {
		return 0
	}
	var writes uint64
	for i := range req.Ops {
		if isWrite(req.Ops[i].Op) && resp.Batch[i].Status == wire.StatusOK {
			writes++
		}
	}
	if writes > 0 {
		*resp = wire.Response{Kind: wire.RespBatch, Status: status}
	}
	return writes
}

// isWrite reports whether a simple op mutates engine state.
func isWrite(op wire.Op) bool {
	return op == wire.OpPut || op == wire.OpInsert || op == wire.OpDelete
}

// isRead reports whether an op only reads engine state.
func isRead(op wire.Op) bool {
	return op == wire.OpGet || op == wire.OpGetAt
}

// runHasWrites reports whether any op in the run mutates engine state.
func runHasWrites(reqs []wire.Request) bool {
	for i := range reqs {
		if isWrite(reqs[i].Op) {
			return true
		}
	}
	return false
}

// execReadsOnly serves a run on a server that cannot take writes — a
// follower (configured read-only serving) or a leader whose WAL device
// failed (countDegraded). Reads still serve from the intact in-memory
// engine; writes are refused without touching the engine. A follower
// refuses with NOT_LEADER carrying the believed leader's address so a
// resilient client can chase the redirect; a degraded leader answers ERR
// as before.
func (c *serverConn) execReadsOnly(reqs []wire.Request, countDegraded bool) []wire.Response {
	if countDegraded {
		c.srv.m.degraded.Add(1)
	}
	refusal := wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr}
	if !countDegraded {
		if st := c.srv.cfg.Repl; st != nil && st.Role() == RoleFollower {
			refusal = wire.Response{Kind: wire.RespEmpty, Status: wire.StatusNotLeader, Redirect: st.LeaderAddr()}
		}
	}
	resps := c.scratchResps(len(reqs))
	for i := range reqs {
		if !isRead(reqs[i].Op) {
			resps[i] = refusal
			continue
		}
		if err := c.srv.runOps(c.sess, []*wire.Request{&reqs[i]}, []*wire.Response{&resps[i]}); err != nil {
			resps[i] = wire.Response{Kind: wire.RespEmpty, Status: wire.StatusOf(err)}
		}
	}
	c.countOps(reqs, resps)
	return resps
}

// execTxns serves a run of TXN frames as one execution unit of the commit
// pipeline, as execBatch serves a run of simple ops: every TXN executes,
// logs and publishes in request order (execTxn), and the worker then
// waits once, on the run's highest durability sequence, so a pipelined
// window of write TXNs shares a flush instead of waiting one out per
// frame. A failed wait answers every write TXN of the run with the
// failure's status as a whole; read-only TXNs keep their answers. The
// returned responses are backed by worker scratch and valid until the
// next run.
func (c *serverConn) execTxns(reqs []wire.Request) []wire.Response {
	resps := c.scratchResps(len(reqs))
	var seq uint64
	for i := range reqs {
		var s uint64
		resps[i], s = c.execTxn(&reqs[i])
		seq = max(seq, s)
	}
	c.awaitAck(seq, reqs, resps)
	return resps
}

// execTxn executes one TXN frame atomically and logs its acked write-set
// as one record without waiting for it: on the lanes, or for a multi-lane
// write on the worker's session while the involved lanes are parked. A TXN
// whose keys all hash to one lane is one Atomic lane batch; a read-only TXN
// spanning lanes is the Ordo-merged cross-shard read. On commit the
// response carries per-op results; on failure the batch status stands
// alone (the client retries or surfaces it). It returns the durability
// sequence the caller's awaitAck must cover (0 when nothing was logged).
func (c *serverConn) execTxn(req *wire.Request) (wire.Response, uint64) {
	c.srv.m.txns.Add(1)
	c.srv.m.txnOps.Add(uint64(len(req.Ops)))
	if c.srv.ReadOnly() && runHasWrites(req.Ops) {
		if st := c.srv.cfg.Repl; st != nil && st.Role() == RoleFollower {
			// RespBatch cannot carry a redirect address; the NOT_LEADER
			// status alone tells the client to re-resolve the leader.
			return wire.Response{Kind: wire.RespBatch, Status: wire.StatusNotLeader}, 0
		}
		return wire.Response{Kind: wire.RespBatch, Status: wire.StatusErr}, 0
	}
	if gc := c.srv.gc; gc != nil && gc.failed() != nil && runHasWrites(req.Ops) {
		c.srv.m.degraded.Add(1)
		return wire.Response{Kind: wire.RespBatch, Status: wire.StatusErr}, 0
	}
	resps := make([]wire.Response, len(req.Ops))
	var seq uint64
	var err error
	switch {
	case c.txnLanes(req) <= 1:
		seq, err = c.execAtomic(req, resps)
	case runHasWrites(req.Ops):
		c.srv.m.crossTxns.Add(1)
		seq, err = c.execParked(req, resps)
	default:
		return c.execTxnCrossRead(req, resps), 0
	}
	return txnResponse(resps, err), seq
}

// txnResponse is a TXN's answer: the per-op results on commit, the bare
// failure status otherwise.
func txnResponse(resps []wire.Response, err error) wire.Response {
	if err != nil {
		return wire.Response{Kind: wire.RespBatch, Status: wire.StatusOf(err)}
	}
	return wire.Response{Kind: wire.RespBatch, Status: wire.StatusOK, Batch: resps}
}

// txnLanes marks the lanes a TXN's keys route to in c.laneMark and returns
// how many are involved.
func (c *serverConn) txnLanes(req *wire.Request) int {
	for i := range c.laneMark {
		c.laneMark[i] = false
	}
	n := 0
	for i := range req.Ops {
		if ln := c.srv.lanes.Route(req.Ops[i].Key); !c.laneMark[ln] {
			c.laneMark[ln] = true
			n++
		}
	}
	return n
}

// execAtomic scatters a TXN's ops to their lanes as Atomic batches — each
// lane runs its slice as one engine transaction and logs its acked writes
// — and gathers the outcome. err is any lane's failure: a submit refused,
// an engine abort, an append failure, or a panic.
func (c *serverConn) execAtomic(req *wire.Request, resps []wire.Response) (seq uint64, err error) {
	c.scatter(req.Ops, resps)
	serr := c.submitGroups(shard.Atomic)
	if seq, err = c.gather(); err == nil {
		err = serr
	}
	return seq, err
}

// parkInvolved submits a Hold barrier to every lane marked in c.laneMark
// and waits until each is parked, returning the release function. While
// parked a lane can commit nothing, so the coordinator's transaction on
// the worker session sees and produces a state no lane write can tear.
func (c *serverConn) parkInvolved() func() {
	held := make([]*shard.Batch, 0, len(c.laneMark))
	for ln, in := range c.laneMark {
		if !in {
			continue
		}
		h := shard.NewHold()
		if c.ports.Submit(ln, h) != nil {
			continue
		}
		held = append(held, h)
	}
	for _, h := range held {
		<-h.Parked
	}
	return func() {
		for _, h := range held {
			close(h.Release)
			h.Wait()
		}
	}
}

// execParked runs a multi-lane TXN on the worker's own session while every
// involved lane is parked — the path of every cross-lane write, and of a
// cross-lane read that lost its optimistic passes. The engine's
// concurrency control still backs it. The acked write-set is logged as ONE
// record on the coordinator stream — split per-lane records could replay a
// torn transfer after a crash — and its commit timestamp is published onto
// every involved lane's board BEFORE the lanes are released, so a later
// cross-shard read's stability check cannot miss this commit.
// Coordinators serialize on crossMu: overlapping lane subsets parked in
// arbitrary order would deadlock otherwise.
//
// The run's durability wait happens after crossMu and the lanes are
// released. That is sound because the wait is on a sequence: any append
// made after this one — by a lane this TXN parked or by the next
// coordinator — gets a higher durability sequence, and the flush that
// covers it covers this record too, so no later write can be acked before
// this one is durable. Readers may see the committed TXN before it is
// durable: the same window §10 gives every lane write.
func (c *serverConn) execParked(req *wire.Request, resps []wire.Response) (seq uint64, err error) {
	srv := c.srv
	// Cross-shard transactions are always traced: they are the requests
	// whose ordering story spans the most machinery.
	c.forceTrace()
	c.txnPtrs(req, resps)
	var cts uint64
	err = func() error {
		srv.crossMu.Lock()
		defer srv.crossMu.Unlock()
		release := c.parkInvolved()
		defer release()
		if err := srv.runOps(c.sess, c.txnReqs, c.txnResps); err != nil {
			return err
		}
		var err error
		cts, seq, err = c.log.logAcked(c.sess, c.txnReqs, c.txnResps, uint64(c.spanTrace))
		for ln, in := range c.laneMark {
			if in && cts != 0 {
				srv.lanes.Lane(ln).Publish(cts)
			}
		}
		return err
	}()
	// Commit span at the commit timestamp itself when the node can convert
	// engine ticks to the span clock's scale; the coordinator path has no
	// lane span — the involved lanes were parked, not executing. The last
	// scratch slot stays free for the run's ack span, which follows every
	// TXN of the run.
	if cts != 0 && c.spans != nil && c.spanN > 0 && c.spanN < len(c.spanBuf)-1 {
		now, unc := c.spans.Now()
		ts := c.spans.ConvTicks(cts)
		if ts == 0 {
			ts = now
		}
		c.spanBuf[c.spanN] = span.Span{Stage: span.StageCommit, TS: ts, Unc: unc, Lane: -1}
		c.spanN++
	}
	return seq, err
}

// txnPtrs fills c.txnReqs and c.txnResps with a pointer view of a TXN's
// ops and response slots — the shape runOps and logAcked take.
func (c *serverConn) txnPtrs(req *wire.Request, resps []wire.Response) {
	c.txnReqs, c.txnResps = c.txnReqs[:0], c.txnResps[:0]
	for i := range req.Ops {
		c.txnReqs = append(c.txnReqs, &req.Ops[i])
		c.txnResps = append(c.txnResps, &resps[i])
	}
}

// crossReadAttempts bounds the optimistic passes of a cross-shard read
// before it falls back to the pessimistic barrier. Logical-clock servers
// have no uncertainty window and never answer NOT_YET, so without the
// bound a hot lane could starve the read forever.
const crossReadAttempts = 3

// execTxnCrossRead serves a multi-lane read-only TXN the Ordo way: execute
// per-lane, then decide with timestamp comparison whether the per-lane
// answers form one consistent cut. Each pass snapshots the involved lanes'
// publication boards (V1), scatters the reads, and snapshots again (V2).
// Lanes publish every acked write before acking it, and reads publish
// nothing, so if V1 == V2 no write that any client could have observed
// landed between the reads — the merge is a consistent cut. That argument
// needs every engine write to pass through a lane or a parked coordinator;
// on a read-only server the engine's writer is the replication apply loop
// (Replay), which commits straight into the engine and publishes nothing,
// so there the read is one engine transaction on the worker's session,
// which the engine's concurrency control keeps atomic against the apply
// loop (a node replays only while read-only). If a board
// moved, cmp_time against the read's start classifies the interfering
// commit: inside the uncertainty window the server answers NOT_YET (the
// paper's honest refusal — order is not yet decidable, the client retries
// with the board timestamp in hand); definitely ordered commits just mean
// we raced a writer, so retry optimistically, and after crossReadAttempts
// fall back to parking the involved lanes.
func (c *serverConn) execTxnCrossRead(req *wire.Request, resps []wire.Response) wire.Response {
	srv := c.srv
	srv.m.crossReads.Add(1)
	if srv.ReadOnly() {
		c.txnPtrs(req, resps)
		return txnResponse(resps, srv.runOps(c.sess, c.txnReqs, c.txnResps))
	}
	// Forced before the first scatter so the lane batches carry the ID.
	c.forceTrace()
	var startTS uint64
	if ord := srv.cfg.Ordo; ord != nil {
		startTS = uint64(ord.GetTime())
	}
	for attempt := 0; attempt < crossReadAttempts; attempt++ {
		c.tsV1 = srv.lanes.Published(c.tsV1)
		if _, err := c.execAtomic(req, resps); err != nil {
			return txnResponse(nil, err)
		}
		c.tsV2 = srv.lanes.Published(c.tsV2)
		stable, uncertain, high := true, false, uint64(0)
		for ln, in := range c.laneMark {
			if !in || c.tsV2[ln] == c.tsV1[ln] {
				continue
			}
			stable = false
			high = max(high, c.tsV2[ln])
			if ord := srv.cfg.Ordo; ord != nil &&
				ord.CmpTime(core.Time(startTS), core.Time(c.tsV2[ln])) == 0 {
				uncertain = true
			}
		}
		if stable {
			return txnResponse(resps, nil)
		}
		if uncertain {
			// Only inside the uncertainty window: the client genuinely
			// cannot be told an order yet. TS carries the interfering
			// board timestamp, mirroring the follower watermark contract.
			srv.m.crossNotYet.Add(1)
			return wire.Response{Kind: wire.RespBatch, Status: wire.StatusNotYet, TS: high}
		}
		srv.m.crossRetries.Add(1)
	}
	// Stable conflict pressure: take the pessimistic barrier. A read-only
	// TXN logs nothing, so there is no durability to wait for.
	srv.m.crossParkedReads.Add(1)
	_, err := c.execParked(req, resps)
	return txnResponse(resps, err)
}

// execStats answers a STATS frame with the server's counter catalogue.
func (c *serverConn) execStats() wire.Response {
	c.srv.m.statsOps.Add(1)
	cat := c.srv.Catalogue()
	pairs := make([]wire.Stat, len(cat))
	for i, smp := range cat {
		pairs[i] = wire.Stat{Name: smp.Series, Value: smp.Value}
	}
	st := wire.NewStats(c.srv.cfg.DB.Protocol().String(), pairs)
	return wire.Response{Kind: wire.RespStats, Status: wire.StatusOK, Stats: st}
}

// execOp applies one simple op inside tx. Row-level outcomes (NOT_FOUND,
// DUPLICATE) become per-op statuses and do not abort the surrounding
// transaction; conflicts and unexpected errors propagate so the whole
// attempt aborts and retries.
func (s *Server) execOp(tx db.Tx, req *wire.Request) (wire.Response, error) {
	if err := s.validateOp(req); err != nil {
		return wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr}, nil
	}
	var err error
	switch req.Op {
	case wire.OpGet:
		var vals []uint64
		vals, err = tx.Read(int(req.Table), req.Key)
		if err == nil {
			return wire.Response{Kind: wire.RespRow, Status: wire.StatusOK, Row: vals}, nil
		}
	case wire.OpGetAt:
		// The watermark gate: on a follower, a read demanding MinTS above
		// the safe-read watermark cannot be answered consistently yet —
		// the apply stream may still hold earlier-timestamped commits. The
		// NOT_YET answer carries the current watermark so the client can
		// back off or fall to another replica. Leaders and unreplicated
		// servers serve GET_AT exactly like GET: every acked write is
		// already visible there.
		if st := s.cfg.Repl; st != nil && st.Role() == RoleFollower {
			if w := st.Watermark(); req.MinTS > w {
				return wire.Response{Kind: wire.RespEmpty, Status: wire.StatusNotYet, TS: w}, nil
			}
		}
		var vals []uint64
		vals, err = tx.Read(int(req.Table), req.Key)
		if err == nil {
			return wire.Response{Kind: wire.RespRow, Status: wire.StatusOK, Row: vals}, nil
		}
	case wire.OpPut:
		err = tx.Update(int(req.Table), req.Key, req.Vals)
	case wire.OpInsert:
		err = tx.Insert(int(req.Table), req.Key, req.Vals)
	case wire.OpDelete:
		err = tx.Delete(int(req.Table), req.Key)
	default:
		return wire.Response{Kind: wire.RespEmpty, Status: wire.StatusErr}, nil
	}
	if err == nil {
		return wire.Response{Kind: wire.RespEmpty, Status: wire.StatusOK}, nil
	}
	if errors.Is(err, db.ErrNotFound) || errors.Is(err, db.ErrDuplicate) {
		return wire.Response{Kind: wire.RespEmpty, Status: wire.StatusOf(err)}, nil
	}
	return wire.Response{}, err
}
