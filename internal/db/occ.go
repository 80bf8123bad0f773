package db

import (
	"sort"
	"sync/atomic"
)

// occDB is timestamp-ordered optimistic concurrency control: transactions
// allocate a begin timestamp, run against a footprint of optimistic reads
// and buffered writes, then lock the write set, allocate a commit
// timestamp, validate the read set against it, and write back (Figure 6).
//
// With the logical allocator both timestamp allocations are fetch-and-adds
// on one cache line — the collapse Figure 13 shows. With the Ordo
// allocator they are local clock reads; validation conservatively aborts
// when a read version and the commit timestamp fall inside the uncertainty
// window (§4.2).
type occDB struct {
	store    *svStore
	alloc    tsAllocator
	proto    Protocol
	sessions atomic.Uint64
}

func newOCC(schema Schema, alloc tsAllocator, proto Protocol) *occDB {
	return &occDB{store: newSVStore(schema), alloc: alloc, proto: proto}
}

// Protocol implements DB.
func (d *occDB) Protocol() Protocol { return d.proto }

// NewSession implements DB.
func (d *occDB) NewSession() Session {
	id := d.sessions.Add(1)
	return &occSession{db: d, token: id, clock: d.alloc()}
}

type occSession struct {
	db    *occDB
	token uint64 // nonzero row-lock owner token
	clock sessionClock

	commits uint64
	aborts  uint64
	lastCTS uint64

	tx occTx // reused across attempts
}

func (s *occSession) Stats() (uint64, uint64) { return s.commits, s.aborts }

// LastCommitTS implements CommitTS: the commit timestamp the session's
// latest successful Run allocated while its write locks were held.
func (s *occSession) LastCommitTS() uint64 { return s.lastCTS }

// ClockStats implements ClockHealth: validation-time timestamp comparisons
// and how many were uncertain (zero for the logical-clock variant).
func (s *occSession) ClockStats() (cmps, uncertain uint64) { return s.clock.stats() }

type occTx struct {
	s     *occSession
	ts    uint64
	acc   []access
	wmap  map[uint64]int // (table<<56|key-ish) → access index; small, rebuilt per txn
	valid bool
}

// key for wmap; tables are small integers so this cannot collide for
// realistic key spaces (keys < 2^56).
func fpKey(table int, key uint64) uint64 { return uint64(table)<<56 ^ key }

// Run implements Session.
func (s *occSession) Run(fn func(tx Tx) error) error {
	tx := &s.tx
	tx.s = s
	tx.ts = s.clock.next() // begin-timestamp allocation
	tx.acc = tx.acc[:0]
	if tx.wmap == nil {
		tx.wmap = make(map[uint64]int, 8)
	}
	clear(tx.wmap)
	tx.valid = true

	if err := fn(tx); err != nil {
		s.aborts++
		return err
	}
	if !tx.valid {
		s.aborts++
		return ErrConflict
	}
	if err := tx.commit(); err != nil {
		s.aborts++
		return err
	}
	s.commits++
	return nil
}

// Read implements Tx.
func (t *occTx) Read(table int, key uint64) ([]uint64, error) {
	if i, ok := t.wmap[fpKey(table, key)]; ok {
		if k := t.acc[i].kind; k == accessDelete || k == accessNone {
			return nil, ErrNotFound
		}
		return append([]uint64(nil), t.acc[i].vals...), nil
	}
	ix, ok := t.s.db.store.table(table)
	if !ok {
		return nil, ErrNotFound
	}
	r, ok := ix.get(key)
	if !ok {
		return nil, ErrNotFound
	}
	vals, wts, ok := r.readConsistent(nil)
	if !ok {
		t.valid = false
		return nil, ErrConflict
	}
	t.acc = append(t.acc, access{kind: accessRead, table: table, key: key, r: r, wts: wts, vals: vals})
	return append([]uint64(nil), vals...), nil
}

// Update implements Tx.
func (t *occTx) Update(table int, key uint64, vals []uint64) error {
	if i, ok := t.wmap[fpKey(table, key)]; ok && t.acc[i].kind != accessRead {
		if k := t.acc[i].kind; k == accessDelete || k == accessNone {
			return ErrNotFound
		}
		t.acc[i].vals = append(t.acc[i].vals[:0], vals...)
		return nil
	}
	ix, ok := t.s.db.store.table(table)
	if !ok {
		return ErrNotFound
	}
	r, ok := ix.get(key)
	if !ok {
		return ErrNotFound
	}
	t.wmap[fpKey(table, key)] = len(t.acc)
	t.acc = append(t.acc, access{kind: accessWrite, table: table, key: key, r: r,
		vals: append([]uint64(nil), vals...)})
	return nil
}

// Insert implements Tx.
func (t *occTx) Insert(table int, key uint64, vals []uint64) error {
	if _, ok := t.s.db.store.table(table); !ok {
		return ErrNotFound
	}
	t.wmap[fpKey(table, key)] = len(t.acc)
	t.acc = append(t.acc, access{kind: accessInsert, table: table, key: key,
		vals: append([]uint64(nil), vals...)})
	return nil
}

// commit runs OCC's lock → timestamp → validate → write sequence.
func (t *occTx) commit() error {
	s := t.s
	// Gather and sort the write set for deadlock-free locking.
	var writes []int
	for i := range t.acc {
		if k := t.acc[i].kind; k != accessRead && k != accessNone {
			writes = append(writes, i)
		}
	}
	if len(writes) == 0 {
		// Read-only: still validated against the commit timestamp below —
		// the paper's OCC allocates it regardless, which is exactly the
		// Figure 13 read-only bottleneck.
		cts := s.clock.next()
		for i := range t.acc {
			a := &t.acc[i]
			if a.kind != accessRead {
				continue // e.g. a cancelled insert
			}
			if a.r.wts.Load() != a.wts || !s.clock.certainlyBefore(a.wts, cts) {
				return ErrConflict
			}
		}
		s.lastCTS = cts
		return nil
	}
	sort.Slice(writes, func(i, j int) bool {
		a, b := &t.acc[writes[i]], &t.acc[writes[j]]
		if a.table != b.table {
			return a.table < b.table
		}
		return a.key < b.key
	})

	locked := make([]*row, 0, len(writes))
	unlockAll := func() {
		for _, r := range locked {
			r.unlock()
		}
	}
	// 1. Lock the write set; materialize inserts as locked rows.
	var inserted []access
	rollbackInserts := func() {
		for _, a := range inserted {
			ix, _ := s.db.store.table(a.table)
			ix.remove(a.key)
		}
	}
	for _, i := range writes {
		a := &t.acc[i]
		switch a.kind {
		case accessWrite:
			if !a.r.tryLock(s.token) {
				unlockAll()
				rollbackInserts()
				return ErrConflict
			}
			locked = append(locked, a.r)
		case accessDelete:
			if !a.r.tryLock(s.token) {
				unlockAll()
				rollbackInserts()
				return ErrConflict
			}
			locked = append(locked, a.r)
			if !s.db.store.linked(a.table, a.key, a.r) {
				unlockAll()
				rollbackInserts()
				return ErrConflict
			}
		case accessInsert:
			r := newRow(a.vals)
			if !r.tryLock(s.token) {
				panic("db: fresh row lock failed")
			}
			ix, _ := s.db.store.table(a.table)
			if !ix.insert(a.key, r) {
				unlockAll()
				rollbackInserts()
				return ErrDuplicate
			}
			a.r = r
			locked = append(locked, r)
			inserted = append(inserted, *a)
		}
	}
	// 2. Commit timestamp.
	cts := s.clock.next()
	// 3. Validate the read set.
	for i := range t.acc {
		a := &t.acc[i]
		if a.kind != accessRead {
			continue
		}
		if owner := a.r.lock.Load(); owner != 0 && owner != s.token {
			unlockAll()
			rollbackInserts()
			return ErrConflict
		}
		if a.r.wts.Load() != a.wts || !s.clock.certainlyBefore(a.wts, cts) {
			unlockAll()
			rollbackInserts()
			return ErrConflict
		}
	}
	// 4. Write phase. Deletes unlink the row before its version bump so a
	// fresh lookup either misses or sees the new version.
	for _, i := range writes {
		a := &t.acc[i]
		switch a.kind {
		case accessWrite:
			a.r.writeData(a.vals)
		case accessDelete:
			ix, _ := s.db.store.table(a.table)
			ix.removeRow(a.key, a.r)
		}
		a.r.wts.Store(cts)
	}
	unlockAll()
	s.lastCTS = cts
	return nil
}

// Delete implements Tx: the victim row is locked like a write at commit,
// removed from the index, and its version bumped so concurrent readers'
// validation catches the removal.
func (t *occTx) Delete(table int, key uint64) error {
	if i, ok := t.wmap[fpKey(table, key)]; ok {
		switch t.acc[i].kind {
		case accessInsert:
			t.acc[i].kind = accessNone // deleting our own pending insert
			return nil
		case accessDelete, accessNone:
			return ErrNotFound
		case accessWrite:
			t.acc[i].kind = accessDelete
			return nil
		}
	}
	ix, ok := t.s.db.store.table(table)
	if !ok {
		return ErrNotFound
	}
	r, ok := ix.get(key)
	if !ok {
		return ErrNotFound
	}
	t.wmap[fpKey(table, key)] = len(t.acc)
	t.acc = append(t.acc, access{kind: accessDelete, table: table, key: key, r: r})
	return nil
}
