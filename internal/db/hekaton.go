package db

import (
	"math"
	"sync/atomic"

	"ordo/internal/core"
)

// hekatonDB is serializable optimistic multi-version concurrency control in
// the style of Hekaton (Larson et al., VLDB'12): every update appends a new
// version stamped with [begin, end) validity timestamps; readers choose the
// version visible at their begin timestamp; commit validates that every
// version read is still visible at the commit timestamp.
//
// Both the begin and the commit timestamp come from the engine's allocator:
// a global fetch-and-add in the original (which collapses even for
// read-only workloads — Figure 13), or the Ordo primitive (§4.2), where
// visibility comparisons go through cmp_time and transactions restart when
// a timestamp pair falls inside the uncertainty window.
type hekatonDB struct {
	schema   Schema
	tables   []*index[*vrow]
	alloc    tsAllocator
	ordo     *core.Ordo // nil for the logical variant
	sessions atomic.Uint64
}

const (
	infTS     = math.MaxUint64
	markerBit = uint64(1) << 63
)

func marker(token uint64) uint64   { return markerBit | token }
func isMarker(ts uint64) bool      { return ts&markerBit != 0 }
func markerToken(ts uint64) uint64 { return ts &^ markerBit }

// version is one immutable row version plus its validity interval.
type version struct {
	begin atomic.Uint64 // commit ts, or marker(token) while pending
	end   atomic.Uint64 // infTS, commit ts, or marker(token) = write lock
	// next points to the older version; atomic because GC truncates
	// chains concurrently with readers walking them.
	next atomic.Pointer[version]
	data []uint64
}

// vrow is a versioned row: a chain ordered newest first.
type vrow struct {
	latest atomic.Pointer[version]
}

func newHekaton(schema Schema, alloc tsAllocator, o *core.Ordo) *hekatonDB {
	d := &hekatonDB{schema: schema, alloc: alloc, ordo: o}
	d.tables = make([]*index[*vrow], len(schema.Tables))
	for i := range d.tables {
		d.tables[i] = newIndex[*vrow]()
	}
	return d
}

// Protocol implements DB.
func (d *hekatonDB) Protocol() Protocol {
	if d.ordo != nil {
		return HekatonOrdo
	}
	return Hekaton
}

// NewSession implements DB.
func (d *hekatonDB) NewSession() Session {
	return &hekSession{db: d, token: d.sessions.Add(1), clock: d.alloc()}
}

type hekSession struct {
	db    *hekatonDB
	token uint64
	clock sessionClock

	commits uint64
	aborts  uint64
	lastCTS uint64

	tx hekTx
}

func (s *hekSession) Stats() (uint64, uint64) { return s.commits, s.aborts }

// LastCommitTS implements CommitTS: the commit timestamp the session's
// latest successful Run published its versions under.
func (s *hekSession) LastCommitTS() uint64 { return s.lastCTS }

// ClockStats implements ClockHealth: visibility/validation timestamp
// comparisons and how many were uncertain (zero for the logical variant).
func (s *hekSession) ClockStats() (cmps, uncertain uint64) { return s.clock.stats() }

// hekRead is a read-set entry: the version observed.
type hekRead struct{ v *version }

// hekWrite is a write-set entry: old version (write-locked via its end
// marker) and the pending new head version. old == nil for inserts.
type hekWrite struct {
	table int
	key   uint64
	r     *vrow
	old   *version
	neu   *version
}

type hekTx struct {
	s      *hekSession
	bts    uint64
	reads  []hekRead
	writes []hekWrite
	wmap   map[uint64]int
	valid  bool
}

// LastBegin returns the session's most recent begin timestamp; the
// minimum across sessions is a safe GC watermark.
func (s *hekSession) LastBegin() uint64 { return s.tx.bts }

// Run implements Session.
func (s *hekSession) Run(fn func(tx Tx) error) error {
	tx := &s.tx
	tx.s = s
	tx.bts = s.clock.next() // begin-timestamp allocation (the MVCC bottleneck)
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	if tx.wmap == nil {
		tx.wmap = make(map[uint64]int, 8)
	}
	clear(tx.wmap)
	tx.valid = true

	err := fn(tx)
	if err == nil && !tx.valid {
		err = ErrConflict
	}
	if err != nil {
		tx.rollback()
		s.aborts++
		return err
	}
	if err := tx.commit(); err != nil {
		s.aborts++
		return err
	}
	s.commits++
	return nil
}

// visible walks the chain for the version visible at bts. It reports
// conflict=true when a committed version had to be skipped only because of
// timestamp uncertainty, or when the row looks deleted only because a
// pending successor was skipped (restart the transaction).
func (t *hekTx) visible(r *vrow) (v *version, conflict bool) {
	clock := t.s.clock
	sawCommitted, skippedPending := false, false
	for cur := r.latest.Load(); cur != nil; cur = cur.next.Load() {
		b := cur.begin.Load()
		if isMarker(b) {
			if markerToken(b) == t.s.token {
				return cur, false // our own pending write
			}
			skippedPending = true
			continue // someone else's uncommitted version
		}
		sawCommitted = true
		if !clock.certainlyAtOrBefore(b, t.bts) {
			continue // began after us (or uncertain): older version needed
		}
		e := cur.end.Load()
		if e == infTS || isMarker(e) {
			// Current version (possibly write-locked by a concurrent
			// transaction; reading it is allowed, validation decides).
			return cur, false
		}
		if clock.certainlyBefore(t.bts, e) {
			return cur, false // ended after our begin
		}
		if clock.certainlyAtOrBefore(e, t.bts) {
			// The newest version that began before us also ended before
			// us with no successor: the row is deleted at our snapshot.
			// Unless we skipped a pending successor: commit stores its
			// begin before this end, so we may have read its marker and
			// then this end, and it is the version we should see.
			return nil, skippedPending
		}
		// Inside the uncertainty window: restart.
		return nil, sawCommitted
	}
	return nil, sawCommitted
}

// Read implements Tx.
func (t *hekTx) Read(table int, key uint64) ([]uint64, error) {
	if i, ok := t.wmap[fpKey(table, key)]; ok {
		if t.writes[i].neu == nil {
			return nil, ErrNotFound // deleted (or cancelled) in this txn
		}
		return append([]uint64(nil), t.writes[i].neu.data...), nil
	}
	if table < 0 || table >= len(t.s.db.tables) {
		return nil, ErrNotFound
	}
	r, ok := t.s.db.tables[table].get(key)
	if !ok {
		return nil, ErrNotFound
	}
	v, conflict := t.visible(r)
	if v == nil {
		if conflict {
			t.valid = false
			return nil, ErrConflict
		}
		return nil, ErrNotFound
	}
	if isMarker(v.begin.Load()) {
		// Our own pending version reached through the chain.
		return append([]uint64(nil), v.data...), nil
	}
	t.reads = append(t.reads, hekRead{v: v})
	return append([]uint64(nil), v.data...), nil
}

// Update implements Tx.
func (t *hekTx) Update(table int, key uint64, vals []uint64) error {
	if i, ok := t.wmap[fpKey(table, key)]; ok {
		if t.writes[i].neu == nil {
			return ErrNotFound // deleted (or cancelled) in this txn
		}
		t.writes[i].neu.data = append(t.writes[i].neu.data[:0], vals...)
		return nil
	}
	if table < 0 || table >= len(t.s.db.tables) {
		return ErrNotFound
	}
	r, ok := t.s.db.tables[table].get(key)
	if !ok {
		return ErrNotFound
	}
	old, conflict := t.visible(r)
	if old == nil || isMarker(old.begin.Load()) {
		if conflict {
			t.valid = false
			return ErrConflict
		}
		return ErrNotFound
	}
	// Write-lock the old version by installing our marker in its end.
	if !old.end.CompareAndSwap(infTS, marker(t.s.token)) {
		t.valid = false
		return ErrConflict
	}
	neu := &version{data: append([]uint64(nil), vals...)}
	neu.next.Store(old)
	neu.begin.Store(marker(t.s.token))
	neu.end.Store(infTS)
	if !r.latest.CompareAndSwap(old, neu) {
		// Head moved: a concurrent writer installed a pending version it
		// could only have built by locking old.end — impossible, since we
		// hold it. A head of someone's aborted-and-restored chain is the
		// only racer; treat as conflict.
		old.end.Store(infTS)
		t.valid = false
		return ErrConflict
	}
	t.wmap[fpKey(table, key)] = len(t.writes)
	t.writes = append(t.writes, hekWrite{table: table, key: key, r: r, old: old, neu: neu})
	return nil
}

// Insert implements Tx. Inserting over a fully deleted chain (no visible
// version) appends a new head version, the MVCC reincarnation path.
func (t *hekTx) Insert(table int, key uint64, vals []uint64) error {
	if table < 0 || table >= len(t.s.db.tables) {
		return ErrNotFound
	}
	neu := &version{data: append([]uint64(nil), vals...)}
	neu.begin.Store(marker(t.s.token))
	neu.end.Store(infTS)
	r := &vrow{}
	r.latest.Store(neu)
	if !t.s.db.tables[table].insert(key, r) {
		// Key exists: allowed only when no version is visible (deleted).
		existing, ok := t.s.db.tables[table].get(key)
		if !ok {
			return ErrConflict // removed under us; retry
		}
		if v, conflict := t.visible(existing); v != nil || conflict {
			if conflict {
				t.valid = false
				return ErrConflict
			}
			return ErrDuplicate
		}
		head := existing.latest.Load()
		neu.next.Store(head)
		if !existing.latest.CompareAndSwap(head, neu) {
			t.valid = false
			return ErrConflict // racing reincarnation
		}
		t.wmap[fpKey(table, key)] = len(t.writes)
		t.writes = append(t.writes, hekWrite{table: table, key: key, r: existing, old: nil, neu: neu})
		return nil
	}
	t.wmap[fpKey(table, key)] = len(t.writes)
	t.writes = append(t.writes, hekWrite{table: table, key: key, r: r, old: nil, neu: neu})
	return nil
}

// Delete implements Tx: the visible version is write-locked through its
// end field and finalized with the commit timestamp, with no successor —
// readers beginning certainly later see no visible version.
func (t *hekTx) Delete(table int, key uint64) error {
	if i, ok := t.wmap[fpKey(table, key)]; ok {
		w := &t.writes[i]
		if w.neu == nil {
			return ErrNotFound // already deleted in this transaction
		}
		if w.old == nil {
			// Deleting our own pending insert: unwind it entirely.
			if w.r.latest.Load() == w.neu {
				if next := w.neu.next.Load(); next == nil {
					t.s.db.tables[table].remove(key)
				} else {
					w.r.latest.CompareAndSwap(w.neu, next)
				}
			}
			w.neu = nil
			w.r = nil
			return nil
		}
		// Convert our pending update into a delete: pop the pending
		// version; old stays end-marked by us.
		w.r.latest.CompareAndSwap(w.neu, w.old)
		w.neu = nil
		return nil
	}
	if table < 0 || table >= len(t.s.db.tables) {
		return ErrNotFound
	}
	r, ok := t.s.db.tables[table].get(key)
	if !ok {
		return ErrNotFound
	}
	old, conflict := t.visible(r)
	if old == nil || isMarker(old.begin.Load()) {
		if conflict {
			t.valid = false
			return ErrConflict
		}
		return ErrNotFound
	}
	if !old.end.CompareAndSwap(infTS, marker(t.s.token)) {
		t.valid = false
		return ErrConflict
	}
	t.wmap[fpKey(table, key)] = len(t.writes)
	t.writes = append(t.writes, hekWrite{table: table, key: key, r: r, old: old, neu: nil})
	return nil
}

// GC truncates version chains: for every row it keeps the newest
// committed version visible at the watermark (plus everything newer and
// anything pending) and unlinks the older tail for the collector. The
// watermark must be at or below every active transaction's begin
// timestamp — the min of LastBegin across sessions, or a clock reading
// taken when no transaction was in flight. Returns versions unlinked.
//
// This is the paper's §1 quiescence use-case applied to the MVCC store:
// with Ordo, the watermark is one local clock read, not an epoch scheme.
func (d *hekatonDB) GC(watermark uint64) int {
	clock := d.alloc()
	freed := 0
	for _, table := range d.tables {
		for sh := range table.shards {
			s := &table.shards[sh]
			s.mu.RLock()
			for _, r := range s.m {
				for cur := r.latest.Load(); cur != nil; cur = cur.next.Load() {
					b := cur.begin.Load()
					if isMarker(b) {
						continue // pending: must keep, and keep walking
					}
					if clock.certainlyAtOrBefore(b, watermark) {
						// cur is the visible version for the oldest
						// possible reader; everything older is garbage.
						for tail := cur.next.Load(); tail != nil; tail = tail.next.Load() {
							freed++
						}
						cur.next.Store(nil)
						break
					}
				}
			}
			s.mu.RUnlock()
		}
	}
	return freed
}

// rollback undoes pending writes after an execution-time failure.
func (t *hekTx) rollback() {
	for i := len(t.writes) - 1; i >= 0; i-- {
		w := t.writes[i]
		if w.r == nil {
			continue // cancelled (insert deleted within the transaction)
		}
		if w.old == nil {
			// Pending insert: a fresh row leaves the index; a
			// reincarnation pops the pending head.
			if next := (*version)(nil); w.neu != nil {
				next = w.neu.next.Load()
				if next != nil {
					w.r.latest.CompareAndSwap(w.neu, next)
					continue
				}
			}
			t.s.db.tables[w.table].remove(w.key)
			continue
		}
		if w.neu != nil {
			w.r.latest.CompareAndSwap(w.neu, w.old)
		}
		w.old.end.Store(infTS)
	}
	t.writes = t.writes[:0]
}

// commit validates the read set at the commit timestamp and finalizes the
// pending versions.
func (t *hekTx) commit() error {
	s := t.s
	cts := s.clock.next()
	for _, rd := range t.reads {
		e := rd.v.end.Load()
		switch {
		case e == infTS:
			// Still current: fine.
		case isMarker(e):
			if markerToken(e) != s.token {
				// Another transaction is replacing what we read and may
				// commit before us: conservative abort.
				t.rollback()
				return ErrConflict
			}
		default:
			// Ended at e: our serialization point cts must precede it.
			if !s.clock.certainlyBefore(cts, e) {
				t.rollback()
				return ErrConflict
			}
		}
	}
	// Finalize: publish begin/end timestamps. A delete has no new version;
	// a cancelled entry has nothing at all.
	for _, w := range t.writes {
		if w.r == nil {
			continue
		}
		if w.neu != nil {
			w.neu.begin.Store(cts)
		}
		if w.old != nil {
			w.old.end.Store(cts)
		}
	}
	s.lastCTS = cts
	return nil
}
