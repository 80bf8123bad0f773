package rlu

import "sync/atomic"

// Object is an RLU-protected value of type T. Readers access it through
// Dereference inside a critical section; writers lock it with TryLock,
// mutate the returned copy, and let ReaderUnlock commit.
//
// The header (copy pointer) plays the role of the C implementation's
// ws-obj header word: nil means unlocked; otherwise it points at the
// owner's working copy.
type Object[T any] struct {
	hdr  atomic.Pointer[objCopy[T]]
	data T
}

// objCopy is a write-log entry: the owner's private copy of one object.
type objCopy[T any] struct {
	owner *Thread
	obj   *Object[T]
	data  T
}

func (c *objCopy[T]) writeback() { c.obj.data = c.data }
func (c *objCopy[T]) unlock()    { c.obj.hdr.Store(nil) }

// NewObject wraps v as an RLU-protected object.
func NewObject[T any](v T) *Object[T] { return &Object[T]{data: v} }

// Dereference returns the version of o visible to t's current critical
// section: the original object, the thread's own working copy, or a
// committed copy stolen from another writer whose commit t's clock cannot
// place before its own section start.
//
// The returned pointer must not be retained past ReaderUnlock, and must
// not be written through — use TryLock for writes.
func Dereference[T any](t *Thread, o *Object[T]) *T {
	c := o.hdr.Load()
	if c == nil {
		return &o.data
	}
	if c.owner == t {
		return &c.data
	}
	wc := c.owner.publishedWriteClock()
	before, unc := t.d.ord.certainlyBefore(t.localClock.Load(), wc)
	t.countCmp(unc)
	if before {
		// Our section certainly predates the owner's commit (or the owner
		// has no commit in flight): read the original snapshot.
		return &o.data
	}
	// Steal: the owner's commit is not certainly after us, so it is either
	// committed before our section or concurrent with it; in both cases
	// its copy is the version we must observe (and the original may be
	// undergoing write-back).
	return &c.data
}

// TryLock locks o for writing within t's current section and returns a
// writable copy. ok == false signals a writer-writer conflict: the caller
// must Abort the section and retry (RLU forbids writer-writer sharing).
func TryLock[T any](t *Thread, o *Object[T]) (ptr *T, ok bool) {
	t.isWriter = true
	if c := o.hdr.Load(); c != nil {
		if c.owner == t {
			return &c.data, true // already ours (same section or deferred)
		}
		c.owner.requestSync()
		return nil, false
	}
	c := &objCopy[T]{owner: t, obj: o}
	if !o.hdr.CompareAndSwap(nil, c) {
		if cur := o.hdr.Load(); cur != nil && cur.owner != t {
			cur.owner.requestSync()
		}
		return nil, false
	}
	// Safe to copy after publishing the header: no other thread reads
	// c.data until t.writeClock holds a commit timestamp, which happens
	// after this copy in program order (and with release/acquire ordering
	// through the writeClock atomics).
	c.data = o.data
	t.log = append(t.log, c)
	return &c.data, true
}

// IsLocked reports whether o currently has a writer (diagnostics/tests).
func (o *Object[T]) IsLocked() bool { return o.hdr.Load() != nil }
