package rlu

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	"ordo/internal/core"
)

// These white-box tests pin the clock-design semantics of §4.1: the
// logical clock's rules, the Ordo rules, and — the DESIGN.md §5 ablation —
// the negative-skew snapshot hazard that the extra commit-time
// ORDO_BOUNDARY plus the conservative steal rule eliminate.

// cb/ca discard the uncertainty flag for tests that only assert certainty.
func cb(o ordering, a, b uint64) bool { r, _ := o.certainlyBefore(a, b); return r }
func ca(o ordering, a, b uint64) bool { r, _ := o.certainlyAfter(a, b); return r }

func TestLogicalOrderingRules(t *testing.T) {
	l := &logicalClock{}
	// Original RLU steal rule: steal iff write_clock <= local_clock, i.e.
	// read the original iff local < write.
	if !cb(l, 4, 5) {
		t.Error("logical certainlyBefore(4,5) = false")
	}
	if cb(l, 5, 5) {
		t.Error("logical certainlyBefore(5,5) = true; equal clocks must steal")
	}
	// Quiescence: a reader that started at or after the commit is safe.
	if !ca(l, 5, 5) {
		t.Error("logical certainlyAfter(5,5) = false")
	}
	if ca(l, 4, 5) {
		t.Error("logical certainlyAfter(4,5) = true")
	}
	// commitClock returns global+1 and advances, in one step.
	if c := l.commitClock(0); c != 1 {
		t.Errorf("first commitClock = %d, want 1", c)
	}
	if c := l.readClock(); c != 1 {
		t.Errorf("readClock after commit = %d, want 1", c)
	}
}

func TestOrdoOrderingRules(t *testing.T) {
	var now uint64 = 1000
	o := core.New(core.ClockFunc(func() core.Time {
		now += 10
		return core.Time(now)
	}), 100)
	c := ordoClock{o}

	// Inactive markers are never stolen from and never "after" anything.
	if !cb(c, 5000, inactive) {
		t.Error("certainlyBefore(x, inactive) must be true (no steal)")
	}
	if ca(c, 5000, inactive) {
		t.Error("certainlyAfter(x, inactive) must be false")
	}
	// Within the boundary: neither certainly before nor after.
	if cb(c, 1000, 1050) || ca(c, 1050, 1000) {
		t.Error("within-boundary pair treated as certain")
	}
	// Outside the boundary: both directions certain.
	if !cb(c, 1000, 1200) || !ca(c, 1200, 1000) {
		t.Error("beyond-boundary pair treated as uncertain")
	}
	// commitClock adds an extra boundary: result > local + 2*boundary.
	wc := c.commitClock(1000)
	if wc <= 1000+200 {
		t.Errorf("commitClock(1000) = %d, want > 1200 (local + 2 boundaries)", wc)
	}
}

// TestNegativeSkewSnapshotHazard is the §4.1 hazard ablation. Setting:
// boundary B bounds the physical skew. A writer commits with
// writeClock = new_time(local + B) > local + 2B. Any reader that begins
// AFTER the commit's real time reads a clock value r >= writeClock - B
// (its clock lags by at most the physical skew <= B, and new_time's
// return was at the commit's real time on the writer's clock).
//
// Hazard: with the naive steal rule "steal iff certainly after", such a
// reader inside the uncertainty window would read the ORIGINAL object
// while the writer writes it back. Our rule — "read the original only if
// certainly BEFORE" — forces every such reader to steal: the property
// below shows no post-commit reader can be certainly-before.
func TestNegativeSkewSnapshotHazard(t *testing.T) {
	const boundary = 276
	o := core.New(core.ClockFunc(func() core.Time { return 0 }), boundary)
	c := ordoClock{o}

	f := func(commitReal uint64, lagSmall uint16) bool {
		commitReal %= 1 << 40
		// Reader's clock lags real time by at most the physical skew,
		// which the boundary dominates.
		lag := uint64(lagSmall) % (boundary + 1)
		writeClock := commitReal            // writer's clock at new_time return (skew 0 WLOG)
		readerLocal := commitReal - lag + 1 // begins just after the commit
		// The reader must NOT be directed to the original object.
		return !cb(c, readerLocal, writeClock)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}

	// And with the naive rule the hazard is real: a lagging reader inside
	// the window is not "certainly after", so naive stealing would read
	// the original mid-writeback.
	writeClock := uint64(1 << 20)
	readerLocal := writeClock - 100 // began after commit, clock lags 100ns
	if ca(c, readerLocal, writeClock) {
		t.Fatal("test setup broken: reader should be inside the window")
	}
	if cb(c, readerLocal, writeClock) {
		t.Fatal("conservative rule failed: lagging post-commit reader sent to original")
	}
}

// TestCommitOrdersAfterEarlierReaders pins the commit-start clock read
// in the Ordo commit timestamp. A reader that began after the writer's
// section start but before the commit, and read one object while the
// writer was inactive (the original), must also read the original of the
// writer's second object once the commit timestamp is published. A commit
// timestamp derived only from the writer's section start lands within one
// boundary of such a reader's clock; the steal rule then hands the reader
// the new copy, and its snapshot is torn.
func TestCommitOrdersAfterEarlierReaders(t *testing.T) {
	const boundary = 100
	// The clock advances one tick per read, so NewTime's spin terminates,
	// and the test moves it forward in between sections.
	var now atomic.Uint64
	o := core.New(core.ClockFunc(func() core.Time {
		return core.Time(now.Add(1))
	}), boundary)
	d := NewDomain(Ordo, o)
	writer, reader := d.RegisterThread(), d.RegisterThread()
	a, b := NewObject(50), NewObject(50)

	writer.ReaderLock() // section start at t≈0
	pa, okA := TryLock(writer, a)
	pb, okB := TryLock(writer, b)
	if !okA || !okB {
		t.Fatal("uncontended TryLock failed")
	}
	*pa, *pb = 60, 40

	now.Store(150) // reader starts later, within two boundaries of it
	reader.ReaderLock()
	if got := *Dereference(reader, a); got != 50 {
		t.Fatalf("a = %d while the writer is inactive, want the original 50", got)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		writer.ReaderUnlock() // commits, then waits for the reader
	}()
	for {
		if wc := writer.writeClock.Load(); wc != inactive && wc != committing {
			break
		}
		runtime.Gosched()
	}
	if got := *Dereference(reader, b); got != 50 {
		t.Errorf("b = %d after the commit timestamp is published, want the original 50 (reader clock %d, writeClock %d)",
			got, reader.localClock.Load(), writer.writeClock.Load())
	}
	reader.ReaderUnlock()
	<-done

	reader.ReaderLock()
	va, vb := *Dereference(reader, a), *Dereference(reader, b)
	reader.ReaderUnlock()
	if va != 60 || vb != 40 {
		t.Errorf("after commit a=%d b=%d, want 60/40", va, vb)
	}
}

// TestStealRuleDegeneratesToOriginal checks that for the logical clock
// our generalized rule is EXACTLY the original RLU condition.
func TestStealRuleDegeneratesToOriginal(t *testing.T) {
	l := &logicalClock{}
	f := func(local, write uint64) bool {
		originalSteals := write <= local
		oursReadsOriginal := cb(l, local, write)
		return originalSteals == !oursReadsOriginal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
