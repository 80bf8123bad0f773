// Package rlu implements Read-Log-Update (Matveev et al., SOSP'15), the
// lightweight synchronization mechanism the paper re-designs in §4.1, in
// both its original form — serialized by a global logical clock bumped
// with an atomic fetch-and-add — and the Ordo form, where every clock
// interaction becomes a local invariant-clock read.
//
// RLU gives readers unsynchronized traversals over shared objects while
// writers lock individual objects, copy them into a per-thread write log,
// mutate the copy, and publish the whole log atomically by advancing the
// clock. Readers that began before the writer's commit keep reading the
// original objects; readers that begin afterwards "steal" the writer's
// copies until the writer writes them back.
//
// The Ordo redesign (§4.1) changes exactly three points, mirrored by the
// clock interface here:
//
//   - reader lock records get_time() instead of loading the global clock;
//   - commit obtains new_time(max(localClock, get_time()) + boundary)
//     instead of fetch_and_add (the extra boundary guards the
//     single-version snapshot against negative skew between the committer
//     and a stealing reader);
//   - the steal check and the quiescence loop compare clocks with
//     cmp_time(), treating "uncertain" conservatively (no steal / keep
//     waiting).
//
// A commit publishes in a fixed order. The writer first stores the
// committing marker in its writeClock, and only then takes the commit
// timestamp and stores it in place of the marker. A reader whose steal
// check meets the marker waits until the timestamp replaces it, so no
// reader can decide "read the original" from an inactive writeClock once
// the commit timestamp exists. The Ordo timestamp is taken from the clock
// read at commit start (after the marker store), not only from the
// writer's section start: every clock value a reader recorded before the
// commit began is then certainly before the timestamp, so that reader
// keeps reading originals for the rest of its section and the writer
// waits for it.
//
// Unlike the C implementation, copies live on the garbage-collected heap,
// so the original's two-generation write-log recycling is unnecessary:
// stealing readers keep copies alive for exactly as long as they need them.
package rlu

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"ordo/internal/core"
)

// writeClock markers. inactive: the thread has no commit in flight, so
// no reader steals from it. committing: the thread has started a commit
// and is taking its timestamp; a reader that meets it waits (for at most
// one commitClock call) until the timestamp is published. Neither is a
// clock value, and the ordering comparisons never see committing.
const (
	inactive   = math.MaxUint64
	committing = math.MaxUint64 - 1
)

// ordering abstracts the two clock designs. The comparison methods also
// report whether the outcome was uncertain — always false for the exact
// logical clock — so call sites can count how often the Ordo design's
// conservatism actually fires (clock-health observability).
type ordering interface {
	// readClock returns the value a beginning operation records.
	readClock() uint64
	// commitClock returns the writer's publication timestamp, advancing
	// the global clock in the logical design. It is called after the
	// writer has published the committing marker.
	commitClock(localClock uint64) uint64
	// certainlyAfter reports a > b with certainty (quiescence check).
	certainlyAfter(a, b uint64) (after, uncertain bool)
	// certainlyBefore reports a < b with certainty (steal check: a reader
	// reads the original object only when its clock is certainly before
	// the owner's commit; otherwise it steals the committed copy).
	certainlyBefore(a, b uint64) (before, uncertain bool)
}

// logicalClock is the original RLU ordering: one contended cache line.
type logicalClock struct {
	_     [8]uint64 // pad to keep the hot word alone on its line
	clock atomic.Uint64
	_     [8]uint64
}

func (l *logicalClock) readClock() uint64 { return l.clock.Load() }
func (l *logicalClock) commitClock(uint64) uint64 {
	// Add returns global + 1 and advances the global clock in one atomic
	// step. A reader may start before the result reaches writeClock; the
	// committing marker, stored before this call, makes it wait and then
	// steal instead of reading an original from an inactive writeClock
	// (original RLU sets write_clock before advancing the clock).
	return l.clock.Add(1)
}
func (l *logicalClock) certainlyAfter(a, b uint64) (bool, bool) { return a >= b, false }

// certainlyBefore(a, b) == a < b makes the steal check "steal unless
// certainly before" identical to the original RLU rule
// "steal iff write_clock <= local_clock".
func (l *logicalClock) certainlyBefore(a, b uint64) (bool, bool) { return a < b, false }

// ordoClock is the Ordo ordering from §4.1.
type ordoClock struct{ o *core.Ordo }

func (c ordoClock) readClock() uint64 { return uint64(c.o.GetTime()) }
func (c ordoClock) commitClock(localClock uint64) uint64 {
	// Start from the later of the section start and the clock read now,
	// at commit start: a reader that recorded its clock before the commit
	// began (and may already have read an original) is then at most one
	// boundary after now, hence certainly before the result. One extra
	// boundary separates the new snapshot from the old even if the
	// stealing reader's clock lags the committer's by a full skew; the
	// result stays above localClock + 2·boundary as in the paper.
	start := max(core.Time(localClock), c.o.GetTime())
	return uint64(c.o.NewTime(start + c.o.Boundary()))
}
func (c ordoClock) certainlyAfter(a, b uint64) (bool, bool) {
	if b == inactive {
		// Nothing can be certainly after an inactive marker; guards the
		// CmpTime arithmetic against wraparound at MaxUint64. Not a clock
		// comparison, so not an uncertain outcome either.
		return false, false
	}
	r := c.o.CmpTime(core.Time(a), core.Time(b))
	return r == core.After, r == core.Uncertain
}

// certainlyBefore treats the uncertain window conservatively on the steal
// side: a reader whose clock falls within one boundary of the commit
// timestamp steals the copy. Such a reader provably began after the
// commit's real time (boundary ≥ max physical skew), so linearizing it
// after the commit is legal, and stealing keeps it away from the original
// object that the writer is about to write back — the hazard the paper's
// extra commit-time ORDO_BOUNDARY addresses (§4.1).
func (c ordoClock) certainlyBefore(a, b uint64) (bool, bool) {
	if b == inactive {
		return true, false // an inactive owner's copy is never stolen
	}
	r := c.o.CmpTime(core.Time(a), core.Time(b))
	return r == core.Before, r == core.Uncertain
}

// Mode selects the clock design for a Domain.
type Mode int

const (
	// Logical is the original RLU global logical clock.
	Logical Mode = iota
	// Ordo replaces the logical clock with the Ordo primitive.
	Ordo
)

// Domain is an RLU instance: a set of participating threads sharing one
// ordering. All objects manipulated under one Domain are one consistency
// domain.
type Domain struct {
	ord  ordering
	mode Mode

	mu      sync.Mutex
	threads []*Thread
	// published snapshot of the registry for lock-free iteration during
	// synchronize.
	registry atomic.Pointer[[]*Thread]
}

// NewDomain creates an RLU domain. For Ordo mode, pass the calibrated
// primitive; for Logical mode, o may be nil.
func NewDomain(mode Mode, o *core.Ordo) *Domain {
	d := &Domain{mode: mode}
	switch mode {
	case Logical:
		d.ord = &logicalClock{}
	case Ordo:
		if o == nil {
			panic("rlu: Ordo mode requires a calibrated *core.Ordo")
		}
		d.ord = ordoClock{o}
	default:
		panic("rlu: unknown mode")
	}
	empty := []*Thread{}
	d.registry.Store(&empty)
	return d
}

// Mode returns the domain's clock design.
func (d *Domain) Mode() Mode { return d.mode }

// Thread is a participant's per-thread context. A Thread must be used by
// one goroutine at a time; concurrent operations require separate Threads.
type Thread struct {
	d *Domain

	runCount    atomic.Uint64 // odd = inside a critical section
	localClock  atomic.Uint64
	writeClock  atomic.Uint64
	syncRequest atomic.Bool // another writer hit one of our deferred locks

	isWriter bool
	log      []logged
	syncWait []uint64 // scratch for synchronize

	// deferral (§6.4, Figure 12): when maxDefer > 0 the thread batches
	// commits and synchronizes only on conflict or when the log fills.
	maxDefer int

	// Stats.
	commits uint64
	aborts  uint64
	syncs   uint64

	// Clock-health stats: comparisons this thread performed (steal checks
	// in Dereference, quiescence checks in synchronize) and how many came
	// out uncertain — always zero under the exact logical clock.
	clockCmps      uint64
	clockUncertain uint64
}

// countCmp tallies one clock comparison outcome for ClockStats.
func (t *Thread) countCmp(uncertain bool) {
	t.clockCmps++
	if uncertain {
		t.clockUncertain++
	}
}

// logged is one write-log entry; the concrete type carries the object.
type logged interface {
	writeback()
	unlock()
}

// RegisterThread adds a new participant to the domain.
func (d *Domain) RegisterThread() *Thread {
	t := &Thread{d: d}
	t.writeClock.Store(inactive)
	d.mu.Lock()
	d.threads = append(d.threads, t)
	snap := make([]*Thread, len(d.threads))
	copy(snap, d.threads)
	d.registry.Store(&snap)
	d.mu.Unlock()
	return t
}

// SetMaxDefer enables deferred commits: up to n writer sections are
// batched before a synchronize, unless a writer-writer conflict forces an
// earlier flush. n == 0 restores immediate commits. Must be called outside
// a critical section.
func (t *Thread) SetMaxDefer(n int) { t.maxDefer = n }

// ReaderLock begins a critical section (readers and writers alike).
func (t *Thread) ReaderLock() {
	t.isWriter = false
	t.runCount.Add(1) // now odd: active
	t.localClock.Store(t.d.ord.readClock())
}

// ReaderUnlock ends the critical section; if the thread wrote, the write
// log is committed (or deferred).
//
// As in the original RLU, the section is marked inactive BEFORE the
// commit runs: a committing writer must not appear active to other
// writers' quiescence loops, or two concurrent committers would wait for
// each other forever.
func (t *Thread) ReaderUnlock() {
	t.runCount.Add(1) // now even: inactive
	if t.isWriter {
		if t.maxDefer > 0 && len(t.log) < t.maxDefer && !t.syncRequest.Load() {
			// Defer: the objects stay locked by us; the log commits at a
			// later section boundary or on a conflicting writer's request.
			return
		}
		t.commitWriteLog()
	}
}

// Abort abandons the current section, unlocking anything locked.
func (t *Thread) Abort() {
	if t.isWriter {
		for _, e := range t.log {
			e.unlock()
		}
		t.log = t.log[:0]
		t.isWriter = false
		t.aborts++
	}
	t.runCount.Add(1) // inactive
}

// Flush forces any deferred write log out (commit + synchronize). Must be
// called outside a critical section.
func (t *Thread) Flush() {
	if len(t.log) == 0 {
		return
	}
	t.localClock.Store(t.d.ord.readClock())
	t.commitWriteLog()
}

// requestSync asks a deferring thread to flush its write log at the next
// section boundary; the requester aborts and retries meanwhile.
func (t *Thread) requestSync() { t.syncRequest.Store(true) }

func (t *Thread) commitWriteLog() {
	t.syncRequest.Store(false)
	if len(t.log) == 0 {
		t.isWriter = false
		return
	}
	// Publish the marker before the timestamp exists, so the timestamp is
	// never passed by a reader that still sees this thread as inactive.
	t.writeClock.Store(committing)
	t.writeClock.Store(t.d.ord.commitClock(t.localClock.Load()))
	t.synchronize()
	for _, e := range t.log {
		e.writeback()
	}
	for _, e := range t.log {
		e.unlock()
	}
	t.writeClock.Store(inactive)
	t.log = t.log[:0]
	t.isWriter = false
	t.commits++
}

// publishedWriteClock returns t's writeClock once it is not the
// committing marker: inactive or a commit timestamp. The wait lasts one
// commitClock call (about two boundaries under Ordo).
func (t *Thread) publishedWriteClock() uint64 {
	for spins := 0; ; spins++ {
		if wc := t.writeClock.Load(); wc != committing {
			return wc
		}
		if spins%128 == 127 {
			runtime.Gosched()
		}
	}
}

// synchronize waits for every reader that may still observe the old
// snapshot (started before our writeClock) to leave its section.
func (t *Thread) synchronize() {
	t.syncs++
	threads := *t.d.registry.Load()
	if cap(t.syncWait) < len(threads) {
		t.syncWait = make([]uint64, len(threads))
	}
	wait := t.syncWait[:len(threads)]
	for i, other := range threads {
		if other == t {
			wait[i] = 0 // even: skip self
			continue
		}
		wait[i] = other.runCount.Load()
	}
	wc := t.writeClock.Load()
	for i, other := range threads {
		if other == t {
			continue
		}
		for spins := 0; ; spins++ {
			if wait[i]&1 == 0 {
				break // was not in a section
			}
			if other.runCount.Load() != wait[i] {
				break // has since progressed
			}
			after, unc := t.d.ord.certainlyAfter(other.localClock.Load(), wc)
			t.countCmp(unc)
			if after {
				break // started after my commit: reads the new snapshot
			}
			if spins%128 == 127 {
				runtime.Gosched()
			}
		}
	}
}

// Stats reports per-thread counters.
func (t *Thread) Stats() (commits, aborts, syncs uint64) {
	return t.commits, t.aborts, t.syncs
}

// ClockStats reports this thread's clock-comparison counters: how many
// steal/quiescence comparisons it performed and how many fell inside the
// uncertainty window (forcing a conservative steal or a longer quiescence
// wait). The ratio is the thread's Uncertain rate; always 0/cmps under the
// logical clock.
func (t *Thread) ClockStats() (cmps, uncertain uint64) {
	return t.clockCmps, t.clockUncertain
}
