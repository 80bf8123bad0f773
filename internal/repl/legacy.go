package repl

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"ordo/internal/server"
	"ordo/internal/wal"
)

// Builds before the regime record kept a node's regime in three places:
// the failover.json sidecar (role, epoch, regime start), the fencing epoch
// in v2 WAL segment headers, and the follower cursor in cursor.json (a
// JSON body, or two 36-byte slots gen|inc|seq|epoch|crc32c at offsets 0
// and 4096). Promotion updated them in separate steps, so those builds
// booted at the max of the three epochs. A directory they wrote is
// converted by the same rule when its record is first created, and the
// two files are then removed.
const (
	legacyMeta   = "failover.json"
	legacyCursor = "cursor.json"
)

// readLegacy derives a directory's first regime record from the legacy
// files; a directory without them yields the zero regime. A corrupt
// sidecar is an error, as it was for the builds that wrote it; a corrupt
// cursor only costs a resend from the origin.
func readLegacy(dir string) (Regime, error) {
	var meta struct {
		Role    string
		Epoch   uint64
		PrevInc uint64 `json:"prev_inc"`
		PrevSeq uint64 `json:"prev_seq"`
	}
	data, err := os.ReadFile(filepath.Join(dir, legacyMeta))
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &meta); err != nil {
			return Regime{}, fmt.Errorf("repl: corrupt %s: %w", filepath.Join(dir, legacyMeta), err)
		}
	case !os.IsNotExist(err):
		return Regime{}, err
	}
	g := Regime{Epoch: meta.Epoch, Start: Position{Inc: meta.PrevInc, Seq: meta.PrevSeq}}
	switch meta.Role {
	case "leader":
		g.Role = server.RoleLeader
	case "follower":
		g.Role = server.RoleFollower
	}
	walEpoch, err := wal.LegacyEpoch(dir)
	if err != nil {
		return Regime{}, err
	}
	g.Epoch = max(g.Epoch, walEpoch)
	pos, epoch := readLegacyCursor(filepath.Join(dir, legacyCursor))
	g.Epoch = max(g.Epoch, epoch)
	if epoch == g.Epoch {
		// A cursor written under an older epoch is in an older leader's
		// coordinates.
		g.Pos = pos
	}
	return g, nil
}

// readLegacyCursor decodes cursor.json; missing or corrupt is the origin.
func readLegacyCursor(path string) (Position, uint64) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Position{}, 0
	}
	if len(data) != 2*regimePageSize {
		var c struct{ Inc, Seq, Epoch uint64 }
		if json.Unmarshal(data, &c) != nil {
			return Position{}, 0
		}
		return Position{Inc: c.Inc, Seq: c.Seq}, c.Epoch
	}
	var best [4]uint64
	for _, s := range [][]byte{data[:36], data[regimePageSize : regimePageSize+36]} {
		if binary.LittleEndian.Uint32(s[32:]) != crc32.Checksum(s[:32], crc32c) {
			continue
		}
		if gen := binary.LittleEndian.Uint64(s); gen > best[0] {
			for i := range best {
				best[i] = binary.LittleEndian.Uint64(s[8*i:])
			}
		}
	}
	return Position{Inc: best[1], Seq: best[2]}, best[3]
}

// removeLegacy deletes the converted files once the record is durable.
func removeLegacy(dir string) error {
	for _, name := range []string{legacyMeta, legacyMeta + ".tmp", legacyCursor, legacyCursor + ".tmp"} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}
