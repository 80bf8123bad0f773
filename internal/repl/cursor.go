package repl

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The cursor file holds two fixed slots, one at the start of each of two
// 4 KiB pages, so a torn in-place write can damage only the slot it was
// writing. A slot is
//
//	gen u64 | inc u64 | seq u64 | epoch u64 | crc32c u32   (little endian)
//
// with the CRC over the first 32 bytes. Update gen goes to slot gen%2, so
// it never overwrites the newest valid slot, and the reader takes the valid
// slot with the highest gen: a write torn by a crash falls back to the
// previous cursor, exactly as a crash before a temp+rename install would.
// Files of any other size are the legacy JSON body of Position.
const (
	cursorSlotLen  = 36
	cursorPageSize = 4096
	cursorFileSize = 2 * cursorPageSize
)

var crc32c = crc32.MakeTable(crc32.Castagnoli)

// errCursorCorrupt reports a cursor file that decodes to no position. The
// caller resumes from the origin: a lost cursor only costs a resend.
var errCursorCorrupt = errors.New("repl: cursor file corrupt")

func encodeSlot(b []byte, gen uint64, p Position) {
	binary.LittleEndian.PutUint64(b[0:], gen)
	binary.LittleEndian.PutUint64(b[8:], p.Inc)
	binary.LittleEndian.PutUint64(b[16:], p.Seq)
	binary.LittleEndian.PutUint64(b[24:], p.Epoch)
	binary.LittleEndian.PutUint32(b[32:], crc32.Checksum(b[:32], crc32c))
}

func decodeSlot(b []byte) (gen uint64, p Position, ok bool) {
	if binary.LittleEndian.Uint32(b[32:]) != crc32.Checksum(b[:32], crc32c) {
		return 0, Position{}, false
	}
	return binary.LittleEndian.Uint64(b[0:]), Position{
		Inc:   binary.LittleEndian.Uint64(b[8:]),
		Seq:   binary.LittleEndian.Uint64(b[16:]),
		Epoch: binary.LittleEndian.Uint64(b[24:]),
	}, true
}

// decodeCursor parses a cursor file's contents. slotted reports a two-slot
// image with a valid slot — the only form that can be updated in place.
func decodeCursor(data []byte) (p Position, gen uint64, slotted bool, err error) {
	if len(data) != cursorFileSize {
		if err := json.Unmarshal(data, &p); err != nil {
			return Position{}, 0, false, fmt.Errorf("%w: %v", errCursorCorrupt, err)
		}
		return p, 0, false, nil
	}
	for off := 0; off < cursorFileSize; off += cursorPageSize {
		if g, q, ok := decodeSlot(data[off:]); ok && (!slotted || g > gen) {
			p, gen, slotted = q, g, true
		}
	}
	if !slotted {
		return Position{}, 0, false, fmt.Errorf("%w: no valid slot", errCursorCorrupt)
	}
	return p, gen, true, nil
}

func readCursorFile(path string) (p Position, gen uint64, slotted bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Position{}, 0, false, nil
	}
	if err != nil {
		return Position{}, 0, false, fmt.Errorf("repl: reading cursor: %w", err)
	}
	return decodeCursor(data)
}

// ReadCursor returns the durable cursor recorded at path, in either the
// two-slot or the legacy JSON form. A missing file is the origin; a file
// that cannot be read or decoded yields the origin and an error.
func ReadCursor(path string) (Position, error) {
	p, _, _, err := readCursorFile(path)
	return p, err
}

// cursorFile is a follower's durable cursor. Once the file holds a
// two-slot image, every store is one in-place slot write and one fsync
// through a handle kept open for the follower's lifetime: no create, no
// rename, no directory fsync.
type cursorFile struct {
	path string
	f    *os.File // nil until the file is a two-slot image this process holds
	gen  uint64   // gen of the newest durable slot
	slot [cursorSlotLen]byte
}

// openCursor loads the cursor at path. An error wrapping errCursorCorrupt
// still returns a usable cursorFile at the origin; its first store
// replaces the whole file.
func openCursor(path string) (*cursorFile, Position, error) {
	p, gen, slotted, err := readCursorFile(path)
	if err != nil && !errors.Is(err, errCursorCorrupt) {
		return nil, Position{}, err
	}
	c := &cursorFile{path: path, gen: gen}
	if slotted { // err is nil: only a decoded image is slotted
		if c.f, err = os.OpenFile(path, os.O_RDWR, 0); err != nil {
			return nil, Position{}, fmt.Errorf("repl: opening cursor: %w", err)
		}
	}
	return c, p, err
}

// store makes p the durable cursor. A failed write leaves gen where it
// was, so the retry rewrites the same slot and the newest valid one is
// never the target.
func (c *cursorFile) store(p Position) error {
	gen := c.gen + 1
	encodeSlot(c.slot[:], gen, p)
	if c.f == nil {
		return c.install(gen)
	}
	if _, err := c.f.WriteAt(c.slot[:], int64(gen%2)*cursorPageSize); err != nil {
		return fmt.Errorf("repl: writing cursor: %w", err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("repl: syncing cursor: %w", err)
	}
	c.gen = gen
	return nil
}

// install writes a whole two-slot image carrying the encoded slot through
// a temp file, fsync, rename and directory fsync, then keeps the handle
// for in-place updates. It runs once per file: when none exists yet, or to
// convert a legacy JSON or corrupt body. The rename swaps the old file for
// a durable replacement in one step, so a durable cursor exists throughout.
func (c *cursorFile) install(gen uint64) error {
	img := make([]byte, cursorFileSize)
	copy(img[gen%2*cursorPageSize:], c.slot[:])
	tmp := c.path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = tf.Write(img); err == nil {
		err = tf.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, c.path)
	}
	if err != nil {
		tf.Close()
		return err
	}
	// Renames are metadata; sync the directory so the cursor survives a
	// machine crash as reliably as the log it points into.
	dir, err := os.Open(filepath.Dir(c.path))
	if err == nil {
		err = dir.Sync()
		dir.Close()
	}
	if err != nil {
		tf.Close()
		return fmt.Errorf("repl: syncing cursor directory: %w", err)
	}
	c.f, c.gen = tf, gen
	return nil
}

// close releases the handle; a later store installs the file afresh.
func (c *cursorFile) close() error {
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
