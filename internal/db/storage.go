package db

import (
	"sync"
	"sync/atomic"
)

// indexShards must be a power of two.
const indexShards = 64

// index is a sharded hash index from key to row pointer. Index operations
// themselves are latched (as in DBx1000); transactional consistency of row
// contents is the CC protocol's job.
type index[R comparable] struct {
	shards [indexShards]struct {
		mu sync.RWMutex
		m  map[uint64]R
	}
}

func newIndex[R comparable]() *index[R] {
	ix := &index[R]{}
	for i := range ix.shards {
		ix.shards[i].m = make(map[uint64]R)
	}
	return ix
}

func (ix *index[R]) shard(key uint64) *struct {
	mu sync.RWMutex
	m  map[uint64]R
} {
	// Multiplicative hash spreads sequential keys across shards.
	h := key * 0x9E3779B97F4A7C15
	return &ix.shards[h>>58&(indexShards-1)]
}

func (ix *index[R]) get(key uint64) (R, bool) {
	s := ix.shard(key)
	s.mu.RLock()
	r, ok := s.m[key]
	s.mu.RUnlock()
	return r, ok
}

// remove deletes key (insert rollback on abort).
func (ix *index[R]) remove(key uint64) {
	s := ix.shard(key)
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
}

// removeRow deletes key only while it still maps to r, so a delete never
// unlinks a row inserted later under the same key.
func (ix *index[R]) removeRow(key uint64, r R) {
	s := ix.shard(key)
	s.mu.Lock()
	if cur, ok := s.m[key]; ok && cur == r {
		delete(s.m, key)
	}
	s.mu.Unlock()
}

// insert stores r under key; it reports false if key already exists.
func (ix *index[R]) insert(key uint64, r R) bool {
	s := ix.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.m[key]; dup {
		return false
	}
	s.m[key] = r
	return true
}

// row is a single-version row shared by the OCC, Silo and TicToc engines.
// The metadata words carry protocol-specific meaning:
//
//	OCC:    wts = last commit timestamp
//	Silo:   wts = TID word (epoch | sequence)
//	TicToc: wts = write timestamp, rts = read timestamp
//
// Row data is read optimistically seqlock-style: load wts, check the lock,
// copy columns, re-check — a torn read is detected and retried or aborted.
type row struct {
	lock atomic.Uint64 // 0 = free, else owner token
	wts  atomic.Uint64
	rts  atomic.Uint64
	data []atomic.Uint64
}

func newRow(vals []uint64) *row {
	r := &row{data: make([]atomic.Uint64, len(vals))}
	for i, v := range vals {
		r.data[i].Store(v)
	}
	return r
}

// tryLock acquires the row's write lock with the given owner token.
func (r *row) tryLock(owner uint64) bool {
	return r.lock.CompareAndSwap(0, owner)
}

func (r *row) unlock() { r.lock.Store(0) }

// readConsistent copies the row's columns along with the wts observed,
// retrying a bounded number of times around concurrent writers. ok=false
// means a stable snapshot could not be obtained (treat as conflict).
func (r *row) readConsistent(buf []uint64) (vals []uint64, wts uint64, ok bool) {
	for attempt := 0; attempt < 8; attempt++ {
		v1 := r.wts.Load()
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
		if r.lock.Load() == 0 && r.wts.Load() == v1 {
			return buf, v1, true
		}
	}
	return nil, 0, false
}

// writeData stores the columns; the caller must hold the row lock.
func (r *row) writeData(vals []uint64) {
	for i := range vals {
		r.data[i].Store(vals[i])
	}
}

// svStore is the storage layer shared by the single-version engines.
type svStore struct {
	schema Schema
	tables []*index[*row]
}

func newSVStore(schema Schema) *svStore {
	s := &svStore{schema: schema, tables: make([]*index[*row], len(schema.Tables))}
	for i := range s.tables {
		s.tables[i] = newIndex[*row]()
	}
	return s
}

func (s *svStore) table(t int) (*index[*row], bool) {
	if t < 0 || t >= len(s.tables) {
		return nil, false
	}
	return s.tables[t], true
}

// linked reports whether key in table still maps to r. A delete checks it
// once it holds r's lock: its lookup may predate another session's
// committed delete of r, and even a re-insert under the key, which the
// lock alone cannot show.
func (s *svStore) linked(table int, key uint64, r *row) bool {
	ix, _ := s.table(table)
	cur, ok := ix.get(key)
	return ok && cur == r
}

// accessKind distinguishes read-set and write-set entries.
type accessKind uint8

const (
	accessRead accessKind = iota
	accessWrite
	accessInsert
	accessDelete
	// accessNone marks a cancelled entry (e.g. a pending insert that was
	// deleted in the same transaction); commit skips it.
	accessNone
)

// access is one read/write/insert footprint entry of a transaction.
type access struct {
	kind  accessKind
	table int
	key   uint64
	r     *row     // nil for inserts until commit
	wts   uint64   // version observed at read
	rts   uint64   // TicToc: read timestamp observed
	vals  []uint64 // buffered write / insert values; read snapshot
}
