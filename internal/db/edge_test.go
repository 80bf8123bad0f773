package db

import (
	"errors"
	"sync/atomic"
	"testing"

	"ordo/internal/core"
)

// tickClock advances a fixed step on every read, so NewTime always
// terminates and tests can force timestamp pairs into (or out of) the
// uncertainty window by choosing step and boundary.
type tickClock struct {
	t    atomic.Uint64
	step uint64
}

func (c *tickClock) Now() core.Time { return core.Time(c.t.Add(c.step)) }

func TestHekatonOrdoUncertaintyRestarts(t *testing.T) {
	// A session's own NewTime chaining always separates its timestamps;
	// uncertainty arises ACROSS sessions: a fresh session whose begin
	// timestamp lands within one boundary of another session's commit
	// cannot place the new version and must restart (ErrConflict).
	const boundary = 1_000_000
	clock := &tickClock{step: 200}
	clock.t.Store(2 * boundary) // first NewTime(0) returns immediately
	o := core.New(clock, boundary)
	d := newHekaton(Schema{Tables: []TableDef{{Name: "t", Cols: 1}}}, ordoAllocator(o), o)

	s1 := d.NewSession()
	if err := s1.Run(func(tx Tx) error { return tx.Insert(0, 1, []uint64{7}) }); err != nil {
		t.Fatalf("insert: %v", err)
	}
	// s2's begin timestamp is only a few ticks past the insert's commit:
	// the version is neither certainly visible nor certainly newer.
	s2 := d.NewSession()
	err := s2.Run(func(tx Tx) error {
		_, err := tx.Read(0, 1)
		return err
	})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("read inside uncertainty window: err = %v, want ErrConflict", err)
	}
	// A session beginning certainly later sees the row.
	clock.t.Add(4 * boundary)
	s3 := d.NewSession()
	err = s3.Run(func(tx Tx) error {
		v, err := tx.Read(0, 1)
		if err != nil {
			return err
		}
		if v[0] != 7 {
			t.Errorf("read %d, want 7", v[0])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("read after window: %v", err)
	}
}

func TestOCCOrdoUncertaintyAborts(t *testing.T) {
	// §4.2's conservative rule: a transaction whose read version falls
	// within one boundary of its commit timestamp aborts. Construct it by
	// having another session commit the row INSIDE this transaction's
	// window, right before the read.
	const boundary = 1_000_000
	clock := &tickClock{step: 200}
	clock.t.Store(2 * boundary)
	o := core.New(clock, boundary)
	d := newOCC(Schema{Tables: []TableDef{{Name: "t", Cols: 1}}}, ordoAllocator(o), OCCOrdo)

	s1 := d.NewSession()
	s2 := d.NewSession()
	err := s2.Run(func(tx Tx) error {
		// A concurrent writer commits now; its commit timestamp is only a
		// few ticks before ours will be.
		if err := s1.Run(func(tx1 Tx) error { return tx1.Insert(0, 1, []uint64{1}) }); err != nil {
			return err
		}
		_, err := tx.Read(0, 1)
		return err
	})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict (uncertain read-set validation)", err)
	}
	// The same read far outside the window commits fine.
	clock.t.Add(4 * boundary)
	s3 := d.NewSession()
	err = s3.Run(func(tx Tx) error {
		_, err := tx.Read(0, 1)
		return err
	})
	if err != nil {
		t.Fatalf("read after window: %v", err)
	}
}

func TestSiloEpochAdvances(t *testing.T) {
	d := newSilo(Schema{Tables: []TableDef{{Name: "t", Cols: 1}}})
	s := d.NewSession()
	if err := s.Run(func(tx Tx) error { return tx.Insert(0, 1, []uint64{0}) }); err != nil {
		t.Fatal(err)
	}
	before := d.epoch.Load()
	for i := 0; i < epochEvery+8; i++ {
		err := s.Run(func(tx Tx) error {
			v, err := tx.Read(0, 1)
			if err != nil {
				return err
			}
			v[0]++
			return tx.Update(0, 1, v)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if after := d.epoch.Load(); after <= before {
		t.Fatalf("epoch did not advance after %d commits: %d -> %d", epochEvery+8, before, after)
	}
}

func TestSiloTIDMonotonePerRow(t *testing.T) {
	d := newSilo(Schema{Tables: []TableDef{{Name: "t", Cols: 1}}})
	s := d.NewSession()
	if err := s.Run(func(tx Tx) error { return tx.Insert(0, 1, []uint64{0}) }); err != nil {
		t.Fatal(err)
	}
	ix, _ := d.store.table(0)
	r, _ := ix.get(1)
	prev := r.wts.Load()
	for i := 0; i < 50; i++ {
		if err := s.Run(func(tx Tx) error { return tx.Update(0, 1, []uint64{uint64(i)}) }); err != nil {
			t.Fatal(err)
		}
		cur := r.wts.Load()
		if cur <= prev {
			t.Fatalf("TID not monotone: %d -> %d", prev, cur)
		}
		prev = cur
	}
}

func TestRowSeqlockDetectsWriter(t *testing.T) {
	r := newRow([]uint64{1, 2})
	// A held lock forces readConsistent to give up.
	if !r.tryLock(7) {
		t.Fatal("tryLock failed on fresh row")
	}
	if _, _, ok := r.readConsistent(nil); ok {
		t.Fatal("readConsistent succeeded under a held lock")
	}
	r.unlock()
	vals, wts, ok := r.readConsistent(nil)
	if !ok || vals[0] != 1 || vals[1] != 2 || wts != 0 {
		t.Fatalf("readConsistent = %v, %d, %v", vals, wts, ok)
	}
}

func TestRowLockExclusive(t *testing.T) {
	r := newRow([]uint64{0})
	if !r.tryLock(1) {
		t.Fatal("first lock failed")
	}
	if r.tryLock(2) {
		t.Fatal("second lock succeeded while held")
	}
	r.unlock()
	if !r.tryLock(2) {
		t.Fatal("lock after unlock failed")
	}
}

func TestIndexShardingAndRemove(t *testing.T) {
	ix := newIndex[int]()
	for k := uint64(0); k < 1000; k++ {
		if !ix.insert(k, int(k)) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if ix.insert(5, 99) {
		t.Fatal("duplicate insert succeeded")
	}
	for k := uint64(0); k < 1000; k++ {
		v, ok := ix.get(k)
		if !ok || v != int(k) {
			t.Fatalf("get(%d) = %d, %v", k, v, ok)
		}
	}
	ix.remove(500)
	if _, ok := ix.get(500); ok {
		t.Fatal("get after remove succeeded")
	}
	// Remove of a missing key is a no-op.
	ix.remove(500)
}

func TestUpdateMissingKey(t *testing.T) {
	for name, d := range engines(t) {
		t.Run(name, func(t *testing.T) {
			s := d.NewSession()
			err := s.Run(func(tx Tx) error {
				return tx.Update(0, 424242, []uint64{1, 2})
			})
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("update missing key: err = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestFpKeyInjectiveForRealisticKeys(t *testing.T) {
	seen := map[uint64]bool{}
	for table := 0; table < 8; table++ {
		for key := uint64(0); key < 1000; key += 13 {
			k := fpKey(table, key)
			if seen[k] {
				t.Fatalf("fpKey collision at table %d key %d", table, key)
			}
			seen[k] = true
		}
	}
}

func TestHekatonGC(t *testing.T) {
	clock := &tickClock{step: 50}
	o := core.New(clock, 100)
	d := newHekaton(Schema{Tables: []TableDef{{Name: "t", Cols: 1}}}, ordoAllocator(o), o)
	s := d.NewSession()
	if err := s.Run(func(tx Tx) error { return tx.Insert(0, 1, []uint64{0}) }); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 9; i++ {
		i := i
		if err := s.Run(func(tx Tx) error { return tx.Update(0, 1, []uint64{i}) }); err != nil {
			t.Fatal(err)
		}
	}
	chainLen := func() int {
		ix := d.tables[0]
		r, _ := ix.get(1)
		n := 0
		for cur := r.latest.Load(); cur != nil; cur = cur.next.Load() {
			n++
		}
		return n
	}
	if got := chainLen(); got != 10 {
		t.Fatalf("chain length = %d, want 10 before GC", got)
	}
	// Watermark before every version: nothing reclaimable.
	if freed := d.GC(1); freed != 0 {
		t.Fatalf("GC(old watermark) freed %d, want 0", freed)
	}
	// Watermark certainly after the newest version: only the head survives.
	clock.t.Add(10_000)
	watermark := uint64(clock.Now())
	if freed := d.GC(watermark); freed != 9 {
		t.Fatalf("GC freed %d versions, want 9", freed)
	}
	if got := chainLen(); got != 1 {
		t.Fatalf("chain length = %d after GC, want 1", got)
	}
	// The surviving version is the latest value and still readable.
	s2 := d.NewSession()
	if err := s2.Run(func(tx Tx) error {
		v, err := tx.Read(0, 1)
		if err != nil {
			return err
		}
		if v[0] != 9 {
			t.Errorf("read %d after GC, want 9", v[0])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// LastBegin exposes the session watermark source.
	if s2.(*hekSession).LastBegin() == 0 {
		t.Error("LastBegin() = 0 after a transaction")
	}
}

func TestHekatonGCKeepsPendingAndMidChain(t *testing.T) {
	clock := &tickClock{step: 50}
	o := core.New(clock, 100)
	d := newHekaton(Schema{Tables: []TableDef{{Name: "t", Cols: 1}}}, ordoAllocator(o), o)
	s := d.NewSession()
	if err := s.Run(func(tx Tx) error { return tx.Insert(0, 1, []uint64{0}) }); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ {
		i := i
		if err := s.Run(func(tx Tx) error { return tx.Update(0, 1, []uint64{i}) }); err != nil {
			t.Fatal(err)
		}
	}
	// A watermark between versions keeps the visible-at-watermark version
	// and everything newer.
	ix := d.tables[0]
	r, _ := ix.get(1)
	// Find the middle version's begin as watermark.
	mid := r.latest.Load().next.Load().next.Load()
	// Certainly after mid's begin (boundary 100 < 150) but still certainly
	// before the next-newer version's begin (commits are NewTime-chained,
	// hundreds of ticks apart).
	watermark := mid.begin.Load() + 150
	freed := d.GC(watermark)
	if freed != 2 {
		t.Fatalf("GC freed %d, want the 2 oldest versions", freed)
	}
}

// TestHekatonReadSkippingPendingSuccessorConflicts pins the
// version-publication race: commit stores the new version's begin before
// the old version's end, so a reader can load the new head while it is
// still a marker and then load the old version's end after both stores.
// The chain it saw — a foreign pending head over a version that began and
// ended at or before its snapshot — must restart the reader, not tell it
// the row is deleted.
func TestHekatonReadSkippingPendingSuccessorConflicts(t *testing.T) {
	d := newHekaton(Schema{Tables: []TableDef{{Name: "t", Cols: 1}}}, logicalAllocator(), nil)
	if err := d.NewSession().Run(func(tx Tx) error { return tx.Insert(0, 1, []uint64{7}) }); err != nil {
		t.Fatalf("insert: %v", err)
	}
	r, _ := d.tables[0].get(1)
	old := r.latest.Load()
	neu := &version{data: []uint64{8}}
	neu.begin.Store(marker(^uint64(0) >> 2)) // no live session's token
	neu.end.Store(infTS)
	neu.next.Store(old)
	r.latest.Store(neu)

	var end uint64
	err := d.NewSession().Run(func(tx Tx) error {
		end = tx.(*hekTx).bts
		old.end.Store(end) // the writer's commit timestamp, at our snapshot
		_, err := tx.Read(0, 1)
		return err
	})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("read past a pending successor: err = %v, want ErrConflict", err)
	}

	// Once the successor's begin is visible too, a restart reads it.
	neu.begin.Store(end)
	err = d.NewSession().Run(func(tx Tx) error {
		v, err := tx.Read(0, 1)
		if err == nil && v[0] != 8 {
			t.Errorf("read %d after publication, want 8", v[0])
		}
		return err
	})
	if err != nil {
		t.Fatalf("read after publication: %v", err)
	}
}
