package db

import (
	"sort"
	"sync/atomic"
)

// tictocDB implements TicToc (Yu et al., SIGMOD'16): commit timestamps are
// computed from per-tuple write/read timestamps instead of a global clock.
// Reads can be "extended" (their rts advanced) at validation, which avoids
// many aborts but makes the validation phase traverse and CAS tuple
// metadata — the extra validation cost §6.5 measures at ~7% under TPC-C,
// where OCC_ORDO's ready-made global time wins by 1.24×.
type tictocDB struct {
	store    *svStore
	sessions atomic.Uint64
}

func newTicToc(schema Schema) *tictocDB {
	return &tictocDB{store: newSVStore(schema)}
}

// Protocol implements DB.
func (d *tictocDB) Protocol() Protocol { return TicToc }

// NewSession implements DB.
func (d *tictocDB) NewSession() Session {
	return &tictocSession{db: d, token: d.sessions.Add(1)}
}

type tictocSession struct {
	db    *tictocDB
	token uint64

	commits uint64
	aborts  uint64

	tx tictocTx
}

func (s *tictocSession) Stats() (uint64, uint64) { return s.commits, s.aborts }

type tictocTx struct {
	s     *tictocSession
	acc   []access
	wmap  map[uint64]int
	valid bool
}

// Run implements Session.
func (s *tictocSession) Run(fn func(tx Tx) error) error {
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
	return nil
}

// readTuple obtains a consistent (data, wts, rts) triple.
func readTuple(r *row, buf []uint64) (vals []uint64, wts, rts uint64, ok bool) {
	for attempt := 0; attempt < 8; attempt++ {
		w1 := r.wts.Load()
		t1 := r.rts.Load()
		if r.lock.Load() != 0 {
			continue
		}
		if cap(buf) < len(r.data) {
			buf = make([]uint64, len(r.data))
		}
		buf = buf[:len(r.data)]
		for i := range r.data {
			buf[i] = r.data[i].Load()
		}
		if r.lock.Load() == 0 && r.wts.Load() == w1 && r.rts.Load() >= t1 {
			return buf, w1, t1, true
		}
	}
	return nil, 0, 0, false
}

// Read implements Tx.
func (t *tictocTx) Read(table int, key uint64) ([]uint64, error) {
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
	vals, wts, rts, ok := readTuple(r, nil)
	if !ok {
		t.valid = false
		return nil, ErrConflict
	}
	t.acc = append(t.acc, access{kind: accessRead, table: table, key: key, r: r,
		wts: wts, rts: rts, vals: vals})
	return append([]uint64(nil), vals...), nil
}

// Update implements Tx.
func (t *tictocTx) Update(table int, key uint64, vals []uint64) error {
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
func (t *tictocTx) Insert(table int, key uint64, vals []uint64) error {
	if _, ok := t.s.db.store.table(table); !ok {
		return ErrNotFound
	}
	t.wmap[fpKey(table, key)] = len(t.acc)
	t.acc = append(t.acc, access{kind: accessInsert, table: table, key: key,
		vals: append([]uint64(nil), vals...)})
	return nil
}

// commit implements TicToc's lock → compute-ts → validate/extend → write.
func (t *tictocTx) commit() error {
	s := t.s
	var writes []int
	for i := range t.acc {
		if k := t.acc[i].kind; k != accessRead && k != accessNone {
			writes = append(writes, i)
		}
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
	fail := func(err error) error {
		for _, r := range locked {
			r.unlock()
		}
		for _, a := range inserted {
			ix, _ := s.db.store.table(a.table)
			ix.remove(a.key)
		}
		return err
	}

	// 1. Lock the write set; the commit timestamp must exceed each locked
	// tuple's rts (someone may have read the version we are replacing).
	var cts uint64
	for _, i := range writes {
		a := &t.acc[i]
		switch a.kind {
		case accessWrite, accessDelete:
			if !a.r.tryLock(s.token) {
				return fail(ErrConflict)
			}
			locked = append(locked, a.r)
			if a.kind == accessDelete && !s.db.store.linked(a.table, a.key, a.r) {
				return fail(ErrConflict)
			}
			if v := a.r.rts.Load() + 1; v > cts {
				cts = v
			}
			if v := a.r.wts.Load() + 1; v > cts {
				cts = v
			}
		case accessInsert:
			r := newRow(a.vals)
			if !r.tryLock(s.token) {
				panic("db: fresh row lock failed")
			}
			ix, _ := s.db.store.table(a.table)
			if !ix.insert(a.key, r) {
				return fail(ErrDuplicate)
			}
			a.r = r
			locked = append(locked, r)
			inserted = append(inserted, *a)
		}
	}
	// Reads require cts ≥ observed wts (we read that version, so our
	// serialization point is at or after it).
	for i := range t.acc {
		a := &t.acc[i]
		if a.kind == accessRead && a.wts > cts {
			cts = a.wts
		}
	}

	// 2. Validate the read set at cts, extending rts where possible. This
	// per-tuple traversal is TicToc's data-driven timestamp computation.
	for i := range t.acc {
		a := &t.acc[i]
		if a.kind != accessRead {
			continue
		}
		if a.rts >= cts {
			continue // already readable at cts
		}
		// Need to extend: only valid if the version is unchanged and not
		// locked by another writer.
		if a.r.wts.Load() != a.wts {
			return fail(ErrConflict)
		}
		if owner := a.r.lock.Load(); owner != 0 && owner != s.token {
			return fail(ErrConflict)
		}
		for {
			cur := a.r.rts.Load()
			if cur >= cts {
				break
			}
			if a.r.rts.CompareAndSwap(cur, cts) {
				break
			}
		}
		// Re-check the version did not change under the extension.
		if a.r.wts.Load() != a.wts {
			return fail(ErrConflict)
		}
	}

	// 3. Write phase: publish data at wts = rts = cts; deletes unlink.
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
		a.r.rts.Store(cts)
	}
	for _, r := range locked {
		r.unlock()
	}
	return nil
}

// Delete implements Tx: the victim row is locked like a write at commit,
// removed from the index, and its version bumped so concurrent readers'
// validation catches the removal.
func (t *tictocTx) Delete(table int, key uint64) error {
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
