package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"ordo/internal/server"
	"ordo/internal/wal"
)

// The regime record is a node's only durable replication state, kept in
// the file "regime" next to the WAL segments it describes. The file holds
// two fixed slots, one at the start of each of two 4 KiB pages, so a torn
// in-place write can damage only the slot it was writing. A slot is
//
//	gen u64 | role u64 | epoch u64 | prev_inc u64 | prev_seq u64 | inc u64 | seq u64 | crc32c u32
//
// little endian, with the CRC over the first 56 bytes. Store gen goes to
// slot gen%2, so it never overwrites the newest valid slot, and the reader
// takes the valid slot with the highest gen: a write torn by a crash falls
// back to the previous whole regime — role, epoch, regime start and
// cursor together.
const (
	regimeName     = "regime"
	regimeSlotLen  = 7*8 + 4
	regimePageSize = 4096
	regimeFileSize = 2 * regimePageSize
)

var crc32c = crc32.MakeTable(crc32.Castagnoli)

// ErrRegimeCorrupt reports a regime record with no valid slot. A failover
// node refuses to boot on it (guessing a regime is how split brain
// starts); a plain follower resumes from the origin, since a lost cursor
// only costs a resend.
var ErrRegimeCorrupt = errors.New("repl: regime record corrupt")

// Regime is what a node knows durably about the replication regime it
// last served under.
type Regime struct {
	// Role is the node's last failover role; RoleNone outside a cluster.
	// A demoted leader keeps RoleLeader here so its restart takes the
	// fenced-rejoin path.
	Role server.ReplRole
	// Epoch is the fencing epoch of that regime.
	Epoch uint64
	// Start is where this node's leadership began: the follower cursor it
	// promoted from. Meaningful while Role is RoleLeader.
	Start Position
	// Pos is the follower cursor, in the coordinates of the leader of
	// Epoch. Raising Epoch clears it: a new leader's log speaks its own
	// (incarnation, seq) coordinates.
	Pos Position
}

func encodeSlot(b []byte, gen uint64, g Regime) {
	for i, v := range [...]uint64{gen, uint64(g.Role), g.Epoch, g.Start.Inc, g.Start.Seq, g.Pos.Inc, g.Pos.Seq} {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	binary.LittleEndian.PutUint32(b[56:], crc32.Checksum(b[:56], crc32c))
}

func decodeSlot(b []byte) (gen uint64, g Regime, ok bool) {
	if binary.LittleEndian.Uint32(b[56:]) != crc32.Checksum(b[:56], crc32c) {
		return 0, Regime{}, false
	}
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	return u(0), Regime{
		Role:  server.ReplRole(u(1)),
		Epoch: u(2),
		Start: Position{Inc: u(3), Seq: u(4)},
		Pos:   Position{Inc: u(5), Seq: u(6)},
	}, true
}

// RegimeFile is an open regime record. Every Store is one in-place slot
// write and one fsync through the handle: no create, no rename, no
// directory fsync. A process holds one handle and stores from one
// goroutine at a time.
type RegimeFile struct {
	path string
	f    *os.File
	gen  uint64 // gen of the newest durable slot
	cur  Regime
	slot [regimeSlotLen]byte
}

// OpenRegime opens the regime record in the WAL directory dir, creating
// the directory if needed. A directory without a record gets one: zero,
// or converted from the files builds before the record kept (see
// legacy.go). An error wrapping ErrRegimeCorrupt still returns a usable
// handle at the zero regime; its first Store makes the record whole again.
func OpenRegime(dir string) (*RegimeFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &RegimeFile{path: filepath.Join(dir, regimeName)}
	f, err := os.OpenFile(r.path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		g, err := readLegacy(dir)
		if err != nil {
			return nil, err
		}
		if err := r.install(g); err != nil {
			return nil, err
		}
		return r, removeLegacy(dir)
	}
	if err != nil {
		return nil, fmt.Errorf("repl: opening regime record: %w", err)
	}
	r.f = f
	buf := make([]byte, regimeFileSize)
	n, err := f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		f.Close()
		return nil, fmt.Errorf("repl: reading regime record: %w", err)
	}
	found := false
	for off := 0; off+regimeSlotLen <= n; off += regimePageSize {
		if gen, g, ok := decodeSlot(buf[off:]); ok && (!found || gen > r.gen) {
			r.gen, r.cur, found = gen, g, true
		}
	}
	if !found {
		return r, fmt.Errorf("%w: %s has no valid slot", ErrRegimeCorrupt, r.path)
	}
	return r, nil
}

// Load returns the regime last stored.
func (r *RegimeFile) Load() Regime { return r.cur }

// Store makes g the durable regime. A failed write leaves gen where it
// was, so the retry rewrites the same slot and the newest valid one is
// never the target.
func (r *RegimeFile) Store(g Regime) error {
	gen := r.gen + 1
	encodeSlot(r.slot[:], gen, g)
	if _, err := r.f.WriteAt(r.slot[:], int64(gen%2)*regimePageSize); err != nil {
		return fmt.Errorf("repl: writing regime record: %w", err)
	}
	if err := r.f.Sync(); err != nil {
		return fmt.Errorf("repl: syncing regime record: %w", err)
	}
	r.gen, r.cur = gen, g
	return nil
}

// install creates the record holding g through a temp file, fsync, rename
// and directory fsync, and keeps the handle. It runs once per directory,
// so a crash while the record is first written leaves either no record
// or a whole one, never a corrupt one.
func (r *RegimeFile) install(g Regime) error {
	img := make([]byte, regimeFileSize)
	encodeSlot(img[regimePageSize:], 1, g)
	tmp := r.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(img); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, r.path)
	}
	if err == nil {
		err = wal.SyncDir(filepath.Dir(r.path))
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("repl: creating regime record: %w", err)
	}
	r.f, r.gen, r.cur = f, 1, g
	return nil
}

// Close releases the handle.
func (r *RegimeFile) Close() error { return r.f.Close() }
