package repl

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ordo/internal/db"
	"ordo/internal/server"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

var cursorTestSchema = db.Schema{Tables: []db.TableDef{{Name: "t0", Cols: 2}}}

// newCursorFollower builds a Follower over a fresh engine and WAL in dir,
// with its cursor at dir/cursor.json. It never dials: tests drive
// applyBatch and Converge directly.
func newCursorFollower(t *testing.T, dir string, logf func(string, ...any)) *Follower {
	t.Helper()
	engine, err := db.New(db.OCC, cursorTestSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := wal.OpenFile(filepath.Join(dir, "wal"), wal.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	f, err := NewFollower(FollowerConfig{
		Addr:      "127.0.0.1:1",
		DB:        engine,
		Log:       wal.New(dev, nil),
		StateFile: filepath.Join(dir, "cursor.json"),
		Logf:      logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func mustReadCursor(t *testing.T, path string) Position {
	t.Helper()
	p, err := ReadCursor(path)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCursorCodecRoundTrip(t *testing.T) {
	want := Position{Inc: 1<<63 + 5, Seq: 42, Epoch: 7}
	var slot [cursorSlotLen]byte
	encodeSlot(slot[:], 9, want)
	gen, got, ok := decodeSlot(slot[:])
	if !ok || gen != 9 || got != want {
		t.Fatalf("slot round trip: gen=%d %+v ok=%v, want 9 %+v", gen, got, ok, want)
	}

	path := filepath.Join(t.TempDir(), "cursor.json")
	c, p, err := openCursor(path)
	if err != nil || p != (Position{}) {
		t.Fatalf("missing file: %+v %v, want origin", p, err)
	}
	defer c.close()
	for i := uint64(1); i <= 5; i++ {
		want := Position{Inc: 3, Seq: i * 10, Epoch: i / 2}
		if err := c.store(want); err != nil {
			t.Fatal(err)
		}
		if got := mustReadCursor(t, path); got != want {
			t.Fatalf("store %d: read %+v, want %+v", i, got, want)
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != cursorFileSize {
		t.Fatalf("cursor file: %v %v, want %d bytes", fi, err, cursorFileSize)
	}
	c.close()

	// A reopened cursor continues the gen sequence where the file left it.
	c2, p, err := openCursor(path)
	if err != nil || p != (Position{Inc: 3, Seq: 50, Epoch: 2}) || c2.gen != c.gen {
		t.Fatalf("reopen: %+v gen=%d %v, want (3, 50, 2) gen=%d", p, c2.gen, err, c.gen)
	}
	c2.close()
}

// corruptSlot flips one byte inside the slot that holds generation gen.
func corruptSlot(t *testing.T, path string, gen uint64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := int64(gen%2)*cursorPageSize + 17
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func TestCursorTornNewestSlotFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cursor.json")
	c, _, err := openCursor(path)
	if err != nil {
		t.Fatal(err)
	}
	prev, newest := Position{Inc: 1, Seq: 10, Epoch: 1}, Position{Inc: 1, Seq: 11, Epoch: 1}
	for _, p := range []Position{prev, newest} {
		if err := c.store(p); err != nil {
			t.Fatal(err)
		}
	}
	c.close()
	corruptSlot(t, path, c.gen)
	if got := mustReadCursor(t, path); got != prev {
		t.Fatalf("torn newest slot: read %+v, want the previous cursor %+v", got, prev)
	}

	// The next store overwrites the torn slot, never the surviving one.
	c2, p, err := openCursor(path)
	if err != nil || p != prev {
		t.Fatalf("reopen: %+v %v", p, err)
	}
	defer c2.close()
	next := Position{Inc: 1, Seq: 12, Epoch: 1}
	if err := c2.store(next); err != nil {
		t.Fatal(err)
	}
	if c2.gen%2 != c.gen%2 {
		t.Fatalf("store after a torn slot wrote slot %d, want the torn slot %d", c2.gen%2, c.gen%2)
	}
	if got := mustReadCursor(t, path); got != next {
		t.Fatalf("after rewrite: %+v, want %+v", got, next)
	}
}

func TestCursorBothSlotsCorruptResumesFromOrigin(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cursor.json")
	c, _, err := openCursor(path)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := c.store(Position{Inc: 1, Seq: seq, Epoch: 3}); err != nil {
			t.Fatal(err)
		}
	}
	c.close()
	corruptSlot(t, path, c.gen)
	corruptSlot(t, path, c.gen-1)

	var mu sync.Mutex
	var logged []string
	f := newCursorFollower(t, dir, func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	if got := f.Position(); got != (Position{}) {
		t.Fatalf("both slots corrupt: resumed from %+v, want (0, 0)", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "corrupt") {
		t.Fatalf("corrupt cursor logged %q, want one corruption message", logged)
	}
}

func TestCursorLegacyJSONConverted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cursor.json")
	legacy := Position{Inc: 4, Seq: 99, Epoch: 2}
	if err := os.WriteFile(path, []byte(`{"inc":4,"seq":99,"epoch":2}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := newCursorFollower(t, dir, t.Logf)
	if got := f.Position(); got != legacy {
		t.Fatalf("legacy JSON cursor read as %+v, want %+v", got, legacy)
	}

	// A conversion that cannot finish leaves the legacy body in place: a
	// directory squatting on the temp path makes the install fail before
	// anything touches the live file.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	f.pos = Position{Inc: 4, Seq: 100, Epoch: 2}
	if err := f.persistPos(); err == nil {
		t.Fatal("install over a blocked temp path succeeded")
	}
	if got := mustReadCursor(t, path); got != legacy {
		t.Fatalf("failed conversion left %+v, want the legacy cursor %+v", got, legacy)
	}
	if err := os.Remove(path + ".tmp"); err != nil {
		t.Fatal(err)
	}

	if err := f.persistPos(); err != nil {
		t.Fatal(err)
	}
	if got := mustReadCursor(t, path); got != f.pos {
		t.Fatalf("converted cursor reads %+v, want %+v", got, f.pos)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != cursorFileSize {
		t.Fatalf("converted cursor: %v %v, want a %d-byte two-slot image", fi, err, cursorFileSize)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestConvergePersistsEpochOnlyCursor(t *testing.T) {
	dir := t.TempDir()
	f := newCursorFollower(t, dir, t.Logf)
	f.pos = Position{Inc: 2, Seq: 9, Epoch: 1}
	f.epoch = 1
	if err := f.persistPos(); err != nil {
		t.Fatal(err)
	}
	if err := f.Converge(&Fenced{Epoch: 4}); err != nil {
		t.Fatal(err)
	}
	want := Position{Epoch: 4}
	if got := mustReadCursor(t, filepath.Join(dir, "cursor.json")); got != want {
		t.Fatalf("cursor after Converge: %+v, want %+v", got, want)
	}
	if got := f.Position(); got != want {
		t.Fatalf("published position after Converge: %+v, want %+v", got, want)
	}
}

// TestCursorUpdatedInPlace applies 1000 batches and checks that the cursor
// file is the same inode with the same size throughout: no per-batch
// create or rename.
func TestCursorUpdatedInPlace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cursor.json")
	f := newCursorFollower(t, dir, t.Logf)
	apply := func(seq uint64) {
		t.Helper()
		data, err := server.AppendRedo(nil, []*wire.Request{{Op: wire.OpPut, Key: seq % 64, Vals: []uint64{seq, seq}}})
		if err != nil {
			t.Fatal(err)
		}
		m := &wire.ReplMsg{Kind: wire.ReplBatch, Inc: 1, Recs: []wire.ReplRecord{{Seq: seq, TS: seq, Data: data}}}
		if err := f.applyBatch(m); err != nil {
			t.Fatal(err)
		}
	}
	apply(1)
	first, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	const batches = 1000
	for seq := uint64(2); seq <= batches; seq++ {
		apply(seq)
	}
	last, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(first, last) || first.Size() != last.Size() {
		t.Fatalf("cursor file replaced across %d batches: %d → %d bytes, same inode %v",
			batches, first.Size(), last.Size(), os.SameFile(first, last))
	}
	if got := mustReadCursor(t, path); got != (Position{Inc: 1, Seq: batches}) {
		t.Fatalf("cursor after %d batches: %+v", batches, got)
	}
}
