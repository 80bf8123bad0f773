// Package shard implements single-writer partition lanes: the serving
// core's answer to the paper's §6.5 observation that timestamp allocation,
// not data access, is the multicore scalability wall. The keyspace is hash-
// partitioned across N lanes; each lane is one goroutine that owns one
// engine session, so every write to a partition is issued by exactly one
// writer and the engine's concurrency control never arbitrates two lanes
// racing for the same row. Connection workers hand decoded work to lanes
// through bounded SPSC rings and wait for completion, so the wire-side
// request order is preserved per connection while lanes batch across
// connections.
//
// The package is deliberately mechanism-only: a Batch carries request and
// response pointers plus a few out-parameters, and an Exec callback —
// supplied by the server — interprets them. Lanes know how to queue, park,
// publish commit timestamps, and count; they do not know what a GET is.
//
// Cross-shard ordering rides on the published commit timestamps: a lane
// publishes the commit timestamp of everything it has executed BEFORE the
// submitting worker is released (publication-before-ack), so any reader
// that snapshots the publication boards after observing an acked write is
// guaranteed to see that write's timestamp. The server's cross-shard read
// path builds on exactly that invariant (DESIGN.md §14).
package shard

import (
	"errors"
	"sync"
	"sync/atomic"

	"ordo/internal/wire"
)

// ErrClosed is returned by Submit once the lane set has shut down.
var ErrClosed = errors.New("shard: lane set closed")

// Kind classifies a batch for the Exec callback.
type Kind uint8

const (
	// Ops is a run of simple ops: Reqs[i]'s result lands in *Resps[i].
	// Each op answers for itself; a run that cannot commit as one engine
	// transaction degrades to per-op transactions.
	Ops Kind = iota
	// Atomic is one lane's slice of a TXN frame — the whole TXN when its
	// keys all route here, or one part of a cross-lane read. It executes as
	// a single engine transaction and fails as a unit through Err.
	Atomic
	// Hold parks the lane: it closes Parked, waits for Release, and only
	// then continues. The cross-shard write path uses it as a barrier —
	// while every involved lane is parked, nothing can commit into the
	// partitions a multi-key transaction spans.
	Hold
)

// Batch is one unit of work handed from a connection worker to a lane.
// Reqs and Resps are parallel: the lane writes result i through Resps[i],
// which points into the worker's response scratch, so completion hands the
// results back with no copying. The worker must not touch Reqs/Resps
// between Submit and Wait.
type Batch struct {
	Kind  Kind
	Reqs  []*wire.Request
	Resps []*wire.Response

	// Seq is the highest group-commit durability sequence the lane
	// appended for this batch (0 when nothing was logged). The worker —
	// not the lane — waits on it, so a lane never blocks on fsync.
	Seq uint64
	// Trace is the sampled trace ID for the request this batch serves
	// (0 when unsampled). The lane stamps it on redo records and on the
	// lane/commit/wal_append spans it emits.
	Trace uint64
	// Err is the batch-level failure of an Atomic batch: the engine
	// transaction did not commit, or its acked writes committed but could
	// not be logged. Ops batches answer per-op through Resps.
	Err error
	// Panicked reports that executing this batch panicked the engine. The
	// lane recovered (it must keep serving other connections' partitions),
	// answered ERR, and replaced its session; the submitting worker tears
	// down its own connection — the same containment boundary the flat
	// design had.
	Panicked bool

	// Hold rendezvous: the lane closes Parked once it is idle at the
	// barrier, then blocks until the coordinator closes Release.
	Parked  chan struct{}
	Release chan struct{}

	// done is buffered so completion never blocks the lane; one token per
	// Submit/Wait round lets the Batch be reused run after run.
	done chan struct{}
}

// NewBatch returns a reusable batch: Submit then Wait, any number of times.
func NewBatch() *Batch { return &Batch{done: make(chan struct{}, 1)} }

// NewHold returns a one-shot barrier batch.
func NewHold() *Batch {
	return &Batch{
		Kind:    Hold,
		Parked:  make(chan struct{}),
		Release: make(chan struct{}),
		done:    make(chan struct{}, 1),
	}
}

func (b *Batch) complete() { b.done <- struct{}{} }

// Wait blocks until the lane finishes the batch. Results are in the
// response slots the worker provided; Seq/Err are valid after.
func (b *Batch) Wait() { <-b.done }

// Exec executes one non-Hold batch on lane `lane` and returns the engine
// commit timestamp the lane should publish: 0 when the batch committed no
// write (reads need no publication) or the engine has no commit-timestamp
// notion. It runs on the lane goroutine, which is the single writer for
// the lane's session.
type Exec func(lane int, b *Batch) (publishTS uint64)

// ringSize bounds each connection→lane ring. A worker has at most one
// outstanding batch per lane (it waits out each run before popping the
// next), so a handful of slots is depth to spare; power of two so the
// index math stays mask-free with wrapping uint64 positions.
const ringSize = 8

// ring is a bounded single-producer/single-consumer queue: the owning
// connection worker pushes, the lane pops. head and tail are free-running
// positions; the atomics order the buf writes against the position
// publication, which is all SPSC needs.
type ring struct {
	buf  [ringSize]*Batch
	head atomic.Uint64 // consumer position (lane)
	tail atomic.Uint64 // producer position (conn worker)
}

func (r *ring) tryPush(b *Batch) bool {
	t := r.tail.Load()
	if t-r.head.Load() == ringSize {
		return false
	}
	r.buf[t%ringSize] = b
	r.tail.Store(t + 1)
	return true
}

func (r *ring) tryPop() *Batch {
	h := r.head.Load()
	if h == r.tail.Load() {
		return nil
	}
	b := r.buf[h%ringSize]
	r.buf[h%ringSize] = nil
	r.head.Store(h + 1)
	return b
}

func (r *ring) len() int { return int(r.tail.Load() - r.head.Load()) }

// Lane is one single-writer partition: a goroutine draining its
// subscribers' rings in round-robin order and executing each batch through
// the server's Exec callback.
type Lane struct {
	id   int
	exec Exec

	// rings is copy-on-write under mu so the drain loop can scan lock-free
	// while connections register and unregister.
	rings atomic.Pointer[[]*ring]
	rr    int // round-robin scan start, lane-goroutine-owned

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool
	sleeping atomic.Bool // lane is (about to be) parked on cond
	waiters  atomic.Int32

	// published is the lane's ordering board: the highest engine commit
	// timestamp this lane has made client-visible. Monotone via CAS-max,
	// advanced before the committing batch completes.
	published atomic.Uint64

	batches atomic.Uint64
	ops     atomic.Uint64
	holds   atomic.Uint64
}

// ID returns the lane's index in its Set.
func (l *Lane) ID() int { return l.id }

// Published returns the lane's current publication-board timestamp.
func (l *Lane) Published() uint64 { return l.published.Load() }

// Publish advances the publication board to ts (CAS-max; never regresses).
// The cross-shard coordinator calls it for multi-lane commits; lanes call
// it for their own.
func (l *Lane) Publish(ts uint64) {
	for {
		cur := l.published.Load()
		if ts <= cur || l.published.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// Batches returns how many batches the lane has executed.
func (l *Lane) Batches() uint64 { return l.batches.Load() }

// Ops returns how many wire requests the lane has executed.
func (l *Lane) Ops() uint64 { return l.ops.Load() }

// Holds returns how many barrier parks the lane has served.
func (l *Lane) Holds() uint64 { return l.holds.Load() }

// Queued returns the approximate number of batches waiting in the lane's
// rings — a racy read, fine for an imbalance gauge.
func (l *Lane) Queued() int {
	n := 0
	if rs := l.rings.Load(); rs != nil {
		for _, r := range *rs {
			n += r.len()
		}
	}
	return n
}

func (l *Lane) register(r *ring) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var rs []*ring
	if cur := l.rings.Load(); cur != nil {
		rs = append(rs, *cur...)
	}
	rs = append(rs, r)
	l.rings.Store(&rs)
}

func (l *Lane) unregister(r *ring) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.rings.Load()
	if cur == nil {
		return
	}
	rs := make([]*ring, 0, len(*cur))
	for _, x := range *cur {
		if x != r {
			rs = append(rs, x)
		}
	}
	l.rings.Store(&rs)
}

// wake nudges the lane if it is parked. The sleeping flag is set before
// the lane's final under-lock scan and the producer's push is an atomic
// store, so either the scan sees the new batch or this wake sees sleeping.
func (l *Lane) wake() {
	if !l.sleeping.Load() {
		return
	}
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}

// scan pops the next queued batch round-robin across subscriber rings.
func (l *Lane) scan() *Batch {
	rs := l.rings.Load()
	if rs == nil || len(*rs) == 0 {
		return nil
	}
	n := len(*rs)
	for i := 0; i < n; i++ {
		if b := (*rs)[(l.rr+i)%n].tryPop(); b != nil {
			l.rr = (l.rr + i + 1) % n
			return b
		}
	}
	return nil
}

// next returns the next batch, parking the goroutine when every ring is
// empty; nil means the lane set closed and everything queued was drained.
func (l *Lane) next() *Batch {
	if b := l.scan(); b != nil {
		return b
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		l.sleeping.Store(true)
		if b := l.scan(); b != nil {
			l.sleeping.Store(false)
			return b
		}
		if l.closed {
			l.sleeping.Store(false)
			return nil
		}
		l.cond.Wait()
		l.sleeping.Store(false)
	}
}

func (l *Lane) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		b := l.next()
		if b == nil {
			return
		}
		l.serve(b)
	}
}

func (l *Lane) serve(b *Batch) {
	if b.Kind == Hold {
		l.holds.Add(1)
		close(b.Parked)
		<-b.Release
		b.complete()
		return
	}
	// Publication-before-ack: the board advances before complete() lets
	// the submitting worker write responses, so a client that has seen an
	// ack can never find the board behind its write.
	if ts := l.exec(l.id, b); ts != 0 {
		l.Publish(ts)
	}
	l.batches.Add(1)
	l.ops.Add(uint64(len(b.Reqs)))
	b.complete()
	if l.waiters.Load() > 0 {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// Set is a fixed group of lanes plus the hash router over them.
type Set struct {
	lanes []*Lane
	wg    sync.WaitGroup
}

// NewSet builds and starts n lanes (n ≥ 1) executing through exec.
func NewSet(n int, exec Exec) *Set {
	if n < 1 {
		n = 1
	}
	s := &Set{lanes: make([]*Lane, n)}
	for i := range s.lanes {
		l := &Lane{id: i, exec: exec}
		l.cond = sync.NewCond(&l.mu)
		s.lanes[i] = l
	}
	s.wg.Add(n)
	for _, l := range s.lanes {
		go l.run(&s.wg)
	}
	return s
}

// N returns the lane count.
func (s *Set) N() int { return len(s.lanes) }

// Lane returns lane i.
func (s *Set) Lane(i int) *Lane { return s.lanes[i] }

// Route maps a key to its owning lane. The mixer (splitmix64 finalizer)
// decorrelates the lane choice from low key bits, so sequential keyspaces
// spread evenly instead of striping.
func (s *Set) Route(key uint64) int {
	if len(s.lanes) == 1 {
		return 0
	}
	return int(mix(key) % uint64(len(s.lanes)))
}

// Published snapshots every lane's publication board into dst (resized as
// needed) and returns it.
func (s *Set) Published(dst []uint64) []uint64 {
	if cap(dst) < len(s.lanes) {
		dst = make([]uint64, len(s.lanes))
	}
	dst = dst[:len(s.lanes)]
	for i, l := range s.lanes {
		dst[i] = l.Published()
	}
	return dst
}

// Close stops every lane after it drains what is queued, and joins the
// goroutines. Callers must ensure no worker will Submit again (the server
// closes lanes only after every connection worker has exited).
func (s *Set) Close() {
	for _, l := range s.lanes {
		l.mu.Lock()
		l.closed = true
		l.cond.Broadcast()
		l.mu.Unlock()
	}
	s.wg.Wait()
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Ports is one connection's submission side: a dedicated SPSC ring per
// lane. Only the connection's worker goroutine may call Submit.
type Ports struct {
	set   *Set
	rings []*ring
}

// NewPorts subscribes a connection to every lane.
func (s *Set) NewPorts() *Ports {
	p := &Ports{set: s, rings: make([]*ring, len(s.lanes))}
	for i, l := range s.lanes {
		r := &ring{}
		p.rings[i] = r
		l.register(r)
	}
	return p
}

// Submit queues b on lane's ring, blocking while the ring is full. The
// caller must Wait on b before reusing it or touching its Reqs/Resps.
func (p *Ports) Submit(lane int, b *Batch) error {
	l := p.set.lanes[lane]
	r := p.rings[lane]
	if r.tryPush(b) {
		l.wake()
		return nil
	}
	l.waiters.Add(1)
	l.mu.Lock()
	for !r.tryPush(b) {
		if l.closed {
			l.mu.Unlock()
			l.waiters.Add(-1)
			return ErrClosed
		}
		l.cond.Wait()
	}
	l.mu.Unlock()
	l.waiters.Add(-1)
	l.wake()
	return nil
}

// Close unsubscribes the connection's rings. The worker must have waited
// out every submitted batch first (rings must be empty).
func (p *Ports) Close() {
	for i, r := range p.rings {
		p.set.lanes[i].unregister(r)
	}
}
