package repl

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"ordo/internal/db"
	"ordo/internal/server"
	"ordo/internal/wal"
	"ordo/internal/wire"
)

var cursorTestSchema = db.Schema{Tables: []db.TableDef{{Name: "t0", Cols: 2}}}

// openTestRegime opens the regime record in dir, failing on any error,
// and closes it at cleanup.
func openTestRegime(t *testing.T, dir string) *RegimeFile {
	t.Helper()
	r, err := OpenRegime(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// readRegime reopens the record in dir and returns what a restart would
// read.
func readRegime(t *testing.T, dir string) Regime {
	t.Helper()
	r, err := OpenRegime(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	return r.Load()
}

// newCursorFollower builds a Follower over a fresh engine and WAL in dir,
// with rec as its regime record. It never dials: tests drive applyBatch
// and Converge directly.
func newCursorFollower(t *testing.T, dir string, rec *RegimeFile) *Follower {
	t.Helper()
	engine, err := db.New(db.OCC, cursorTestSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := wal.OpenFile(dir, wal.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	f, err := NewFollower(FollowerConfig{
		Addr:   "127.0.0.1:1",
		DB:     engine,
		Log:    wal.New(dev, nil),
		Regime: rec,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCursorCodecRoundTrip(t *testing.T) {
	want := Regime{Role: server.RoleLeader, Epoch: 7, Start: Position{Inc: 2, Seq: 1<<63 + 5}, Pos: Position{Inc: 3, Seq: 42}}
	var slot [regimeSlotLen]byte
	encodeSlot(slot[:], 9, want)
	gen, got, ok := decodeSlot(slot[:])
	if !ok || gen != 9 || got != want {
		t.Fatalf("slot round trip: gen=%d %+v ok=%v, want 9 %+v", gen, got, ok, want)
	}

	dir := t.TempDir()
	r, err := OpenRegime(dir)
	if err != nil || r.Load() != (Regime{}) {
		t.Fatalf("fresh directory: %+v %v, want the zero regime", r.Load(), err)
	}
	for i := uint64(1); i <= 5; i++ {
		want := Regime{Role: server.RoleFollower, Epoch: i / 2, Pos: Position{Inc: 3, Seq: i * 10}}
		if err := r.Store(want); err != nil {
			t.Fatal(err)
		}
		if got := readRegime(t, dir); got != want {
			t.Fatalf("store %d: read %+v, want %+v", i, got, want)
		}
	}
	path := filepath.Join(dir, regimeName)
	if fi, err := os.Stat(path); err != nil || fi.Size() != regimeFileSize {
		t.Fatalf("regime record: %v %v, want %d bytes", fi, err, regimeFileSize)
	}
	r.Close()

	// A reopened record continues the gen sequence where the file left it.
	r2 := openTestRegime(t, dir)
	if r2.Load() != (Regime{Role: server.RoleFollower, Epoch: 2, Pos: Position{Inc: 3, Seq: 50}}) || r2.gen != r.gen {
		t.Fatalf("reopen: %+v gen=%d, want epoch 2 at (3, 50) gen=%d", r2.Load(), r2.gen, r.gen)
	}
}

// corruptSlot flips one byte inside the slot that holds generation gen.
func corruptSlot(t *testing.T, path string, gen uint64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := int64(gen%2)*regimePageSize + 17
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestCursorTornNewestSlotFallsBack tears the slot a promotion wrote and
// requires the previous whole regime back: role, epoch, regime start and
// cursor together, never a mix of the two.
func TestCursorTornNewestSlotFallsBack(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegime(dir)
	if err != nil {
		t.Fatal(err)
	}
	prev := Regime{Role: server.RoleFollower, Epoch: 1, Pos: Position{Inc: 1, Seq: 10}}
	newest := Regime{Role: server.RoleLeader, Epoch: 2, Start: Position{Inc: 1, Seq: 11}}
	for _, g := range []Regime{prev, newest} {
		if err := r.Store(g); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	path := filepath.Join(dir, regimeName)
	corruptSlot(t, path, r.gen)
	if got := readRegime(t, dir); got != prev {
		t.Fatalf("torn newest slot: read %+v, want the previous regime %+v", got, prev)
	}

	// The next store overwrites the torn slot, never the surviving one.
	r2 := openTestRegime(t, dir)
	next := Regime{Role: server.RoleFollower, Epoch: 1, Pos: Position{Inc: 1, Seq: 12}}
	if err := r2.Store(next); err != nil {
		t.Fatal(err)
	}
	if r2.gen%2 != r.gen%2 {
		t.Fatalf("store after a torn slot wrote slot %d, want the torn slot %d", r2.gen%2, r.gen%2)
	}
	if got := readRegime(t, dir); got != next {
		t.Fatalf("after rewrite: %+v, want %+v", got, next)
	}
}

// TestCursorBothSlotsCorruptResumesFromOrigin: a record with no valid
// slot is reported, and a plain follower built over the handle anyway
// resumes from the origin; its first store makes the record whole again.
func TestCursorBothSlotsCorruptResumesFromOrigin(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegime(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := r.Store(Regime{Epoch: 3, Pos: Position{Inc: 1, Seq: seq}}); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	path := filepath.Join(dir, regimeName)
	corruptSlot(t, path, r.gen)
	corruptSlot(t, path, r.gen-1)

	r2, err := OpenRegime(dir)
	if !errors.Is(err, ErrRegimeCorrupt) || r2 == nil {
		t.Fatalf("both slots corrupt: handle %v, error %v; want a handle and ErrRegimeCorrupt", r2, err)
	}
	t.Cleanup(func() { r2.Close() })
	f := newCursorFollower(t, filepath.Join(dir, "wal"), r2)
	if got, e := f.Position(), f.Epoch(); got != (Position{}) || e != 0 {
		t.Fatalf("both slots corrupt: resumed from %+v at epoch %d, want the origin at 0", got, e)
	}
	f.pos = Position{Inc: 1, Seq: 1}
	if err := f.persistPos(); err != nil {
		t.Fatal(err)
	}
	if got := readRegime(t, dir); got.Pos != f.pos {
		t.Fatalf("after a store: %+v, want cursor %+v", got, f.pos)
	}
}

// TestCursorLegacyJSONConverted converts a follower directory written
// before the regime record: its cursor.json, in the JSON form and in the
// two-slot form, becomes the record's cursor and epoch, and the file is
// removed. A conversion that cannot finish leaves the legacy file alone.
func TestCursorLegacyJSONConverted(t *testing.T) {
	slotted := make([]byte, 2*regimePageSize)
	for i, v := range [][4]uint64{{1, 4, 98, 2}, {2, 4, 99, 2}} {
		s := slotted[i*regimePageSize:]
		for j, x := range v {
			binary.LittleEndian.PutUint64(s[8*j:], x)
		}
		binary.LittleEndian.PutUint32(s[32:], crc32.Checksum(s[:32], crc32c))
	}
	for name, body := range map[string][]byte{
		"json":    []byte(`{"inc":4,"seq":99,"epoch":2}` + "\n"),
		"slotted": slotted,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, legacyCursor)
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}

			// A directory squatting on the temp path makes the install
			// fail before anything touches the legacy file.
			if err := os.Mkdir(filepath.Join(dir, regimeName+".tmp"), 0o755); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenRegime(dir); err == nil {
				t.Fatal("conversion over a blocked temp path succeeded")
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != string(body) {
				t.Fatalf("failed conversion touched the legacy cursor: %v", err)
			}
			if err := os.Remove(filepath.Join(dir, regimeName+".tmp")); err != nil {
				t.Fatal(err)
			}

			want := Regime{Epoch: 2, Pos: Position{Inc: 4, Seq: 99}}
			f := newCursorFollower(t, filepath.Join(dir, "wal"), openTestRegime(t, dir))
			if got, e := f.Position(), f.Epoch(); got != want.Pos || e != want.Epoch {
				t.Fatalf("legacy cursor read as %+v at epoch %d, want %+v", got, e, want)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("legacy cursor left behind: %v", err)
			}
			if got := readRegime(t, dir); got != want {
				t.Fatalf("converted record reads %+v, want %+v", got, want)
			}
		})
	}
}

func TestConvergePersistsEpochOnlyCursor(t *testing.T) {
	dir := t.TempDir()
	rec := openTestRegime(t, dir)
	f := newCursorFollower(t, filepath.Join(dir, "wal"), rec)
	f.pos = Position{Inc: 2, Seq: 9}
	f.epoch = 1
	if err := f.persistPos(); err != nil {
		t.Fatal(err)
	}
	if err := f.Converge(&Fenced{Epoch: 4}); err != nil {
		t.Fatal(err)
	}
	want := Regime{Epoch: 4}
	if got := readRegime(t, dir); got != want {
		t.Fatalf("record after Converge: %+v, want %+v", got, want)
	}
	if got := f.Position(); got != (Position{}) || f.Epoch() != 4 {
		t.Fatalf("published position after Converge: %+v at epoch %d, want the origin at 4", got, f.Epoch())
	}
}

// TestCursorUpdatedInPlace applies 1000 batches and checks that the record
// file is the same inode with the same size throughout: no per-batch
// create or rename.
func TestCursorUpdatedInPlace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, regimeName)
	f := newCursorFollower(t, filepath.Join(dir, "wal"), openTestRegime(t, dir))
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
		t.Fatalf("regime record replaced across %d batches: %d → %d bytes, same inode %v",
			batches, first.Size(), last.Size(), os.SameFile(first, last))
	}
	if got := readRegime(t, dir); got.Pos != (Position{Inc: 1, Seq: batches}) {
		t.Fatalf("cursor after %d batches: %+v", batches, got)
	}
}
