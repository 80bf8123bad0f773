package db

import (
	"sort"
	"sync/atomic"
)

// siloDB is epoch-based optimistic concurrency control (Tu et al.,
// SOSP'13): no transaction ever touches a global timestamp counter.
// Commit identifiers (TIDs) are computed per transaction from the TIDs it
// observed, tagged with a coarse global epoch that advances rarely — the
// "software bypass" Figure 13 shows scaling alongside the Ordo variants.
type siloDB struct {
	store    *svStore
	epoch    atomic.Uint64
	sessions atomic.Uint64
}

// epochEvery is how many commits a session contributes between epoch-bump
// attempts. Silo advances epochs on a 40 ms timer; an opportunistic
// commit-count bump keeps the engine free of background goroutines while
// preserving the protocol (epoch granularity only affects durability).
const epochEvery = 4096

// epochShift positions the epoch in the TID word's high bits.
const epochShift = 40

func newSilo(schema Schema) *siloDB {
	d := &siloDB{store: newSVStore(schema)}
	d.epoch.Store(1)
	return d
}

// Protocol implements DB.
func (d *siloDB) Protocol() Protocol { return Silo }

// NewSession implements DB.
func (d *siloDB) NewSession() Session {
	return &siloSession{db: d, token: d.sessions.Add(1)}
}

type siloSession struct {
	db      *siloDB
	token   uint64
	lastTID uint64

	commits uint64
	aborts  uint64

	tx siloTx
}

func (s *siloSession) Stats() (uint64, uint64) { return s.commits, s.aborts }

type siloTx struct {
	s     *siloSession
	acc   []access
	wmap  map[uint64]int
	valid bool
}

// Run implements Session.
func (s *siloSession) Run(fn func(tx Tx) error) error {
	tx := &s.tx
	tx.s = s
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
	if s.commits%epochEvery == 0 {
		e := s.db.epoch.Load()
		s.db.epoch.CompareAndSwap(e, e+1)
	}
	return nil
}

// Read implements Tx.
func (t *siloTx) Read(table int, key uint64) ([]uint64, error) {
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
	vals, tid, ok := r.readConsistent(nil)
	if !ok {
		t.valid = false
		return nil, ErrConflict
	}
	t.acc = append(t.acc, access{kind: accessRead, table: table, key: key, r: r, wts: tid, vals: vals})
	return append([]uint64(nil), vals...), nil
}

// Update implements Tx.
func (t *siloTx) Update(table int, key uint64, vals []uint64) error {
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
func (t *siloTx) Insert(table int, key uint64, vals []uint64) error {
	if _, ok := t.s.db.store.table(table); !ok {
		return ErrNotFound
	}
	t.wmap[fpKey(table, key)] = len(t.acc)
	t.acc = append(t.acc, access{kind: accessInsert, table: table, key: key,
		vals: append([]uint64(nil), vals...)})
	return nil
}

// commit implements Silo's three-phase commit: lock writes in global
// order, read the epoch, validate reads, derive the TID, write back.
func (t *siloTx) commit() error {
	s := t.s
	var writes []int
	for i := range t.acc {
		if k := t.acc[i].kind; k != accessRead && k != accessNone {
			writes = append(writes, i)
		}
	}
	if len(writes) == 0 {
		// Phase 2 only: reads validate against unchanged TIDs; no global
		// counter is touched, so read-only transactions scale.
		for i := range t.acc {
			a := &t.acc[i]
			if a.kind != accessRead {
				continue // e.g. a cancelled insert
			}
			if a.r.lock.Load() != 0 || a.r.wts.Load() != a.wts {
				return ErrConflict
			}
		}
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
	var inserted []access
	fail := func() error {
		for _, r := range locked {
			r.unlock()
		}
		for _, a := range inserted {
			ix, _ := s.db.store.table(a.table)
			ix.remove(a.key)
		}
		return ErrConflict
	}
	maxTID := s.lastTID
	for _, i := range writes {
		a := &t.acc[i]
		switch a.kind {
		case accessWrite, accessDelete:
			if !a.r.tryLock(s.token) {
				return fail()
			}
			locked = append(locked, a.r)
			if a.kind == accessDelete && !s.db.store.linked(a.table, a.key, a.r) {
				return fail()
			}
			if tid := a.r.wts.Load(); tid > maxTID {
				maxTID = tid
			}
		case accessInsert:
			r := newRow(a.vals)
			if !r.tryLock(s.token) {
				panic("db: fresh row lock failed")
			}
			ix, _ := s.db.store.table(a.table)
			if !ix.insert(a.key, r) {
				for _, lr := range locked {
					lr.unlock()
				}
				for _, ia := range inserted {
					ix2, _ := s.db.store.table(ia.table)
					ix2.remove(ia.key)
				}
				return ErrDuplicate
			}
			a.r = r
			locked = append(locked, r)
			inserted = append(inserted, *a)
		}
	}
	epoch := s.db.epoch.Load()
	for i := range t.acc {
		a := &t.acc[i]
		if a.kind != accessRead {
			continue
		}
		if owner := a.r.lock.Load(); owner != 0 && owner != s.token {
			return fail()
		}
		if a.r.wts.Load() != a.wts {
			return fail()
		}
		if a.wts > maxTID {
			maxTID = a.wts
		}
	}
	// TID: strictly greater than everything observed, tagged with the
	// current epoch.
	seq := maxTID&(1<<epochShift-1) + 1
	tid := epoch<<epochShift | seq
	if tid <= maxTID {
		tid = maxTID + 1
	}
	s.lastTID = tid
	for _, i := range writes {
		a := &t.acc[i]
		switch a.kind {
		case accessWrite:
			a.r.writeData(a.vals)
		case accessDelete:
			ix, _ := s.db.store.table(a.table)
			ix.removeRow(a.key, a.r)
		}
		a.r.wts.Store(tid)
	}
	for _, r := range locked {
		r.unlock()
	}
	return nil
}

// Delete implements Tx: the victim row is locked like a write at commit,
// removed from the index, and its version bumped so concurrent readers'
// validation catches the removal.
func (t *siloTx) Delete(table int, key uint64) error {
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
