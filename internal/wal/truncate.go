package wal

import (
	"fmt"
	"os"
)

// TruncateAfter removes every record strictly after stream position
// (afterInc, afterSeq) from a log directory: whole segments of later
// incarnations are deleted, and the segments of incarnation afterInc are
// rewritten to keep only records with canonical per-incarnation LSN ≤
// afterSeq. This is the fenced ex-leader's rejoin step — the unshipped
// suffix (records no follower ever acknowledged, and therefore records no
// client ack depended on under replication-gated commits) is rolled back
// to the new leader's cursor before resubscribing, so the rejoiner's replay
// of the new regime's stream starts from a prefix the leader agrees with.
//
// The rewrite is crash-safe and idempotent: kept records are written to a
// temp file that atomically replaces the incarnation's first segment, and
// a crash at any point leaves a directory where re-running TruncateAfter
// with the same position converges to the same state (leftover later
// segments are re-deleted; duplicate records are compacted away by the
// canonical (H, Seq) dedupe). Calling with a position at or beyond the
// tail is a no-op, and (0, 0) empties the log.
//
// It must only run while no writer has the directory open.
func TruncateAfter(dir string, afterInc, afterSeq uint64) (dropped int, err error) {
	segs, err := listSegments(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}

	var (
		targetSegs []segFile // segments of incarnation afterInc, seq order
		dropSegs   []segFile // segments of later incarnations, or headerless
		targetRecs []Record
		dropRecs   int
	)
	for i, s := range segs {
		last := i == len(segs)-1
		recs, hdr, _, valid, rerr := readSegment(s.path, s.seq, last)
		if rerr != nil {
			return 0, rerr
		}
		if !valid {
			// Headerless (torn or already emptied): nothing recoverable
			// lives here, so it is safe to clear out.
			dropSegs = append(dropSegs, s)
			continue
		}
		switch {
		case hdr.incarnation < afterInc:
			// Entirely at or before the cut: untouched.
		case hdr.incarnation == afterInc:
			targetSegs = append(targetSegs, s)
			targetRecs = append(targetRecs, recs...)
		default:
			dropSegs = append(dropSegs, s)
			dropRecs += len(recs)
		}
	}

	kept, _ := Compact(targetRecs)
	if err := Verify(kept); err != nil {
		return 0, fmt.Errorf("wal: truncate incarnation %d: %w", afterInc, err)
	}
	cut := len(kept)
	for cut > 0 && kept[cut-1].LSN > afterSeq {
		cut--
	}
	dropped = dropRecs + (len(kept) - cut)
	kept = kept[:cut]

	if len(dropSegs) == 0 && dropRecs == 0 && cut == len(targetRecs) {
		// Nothing beyond the cut and no duplicate compaction to fold in:
		// the directory already ends at or before the position.
		return 0, nil
	}

	if len(targetSegs) > 0 && cut < len(targetRecs) {
		// Rewrite the target incarnation into its first segment slot.
		if err := rewriteSegment(dir, targetSegs[0].seq, afterInc, kept); err != nil {
			return dropped, err
		}
		for _, s := range targetSegs[1:] {
			if err := os.Remove(s.path); err != nil {
				return dropped, fmt.Errorf("wal: truncate remove %s: %w", s.path, err)
			}
		}
	}
	for _, s := range dropSegs {
		if err := os.Remove(s.path); err != nil {
			return dropped, fmt.Errorf("wal: truncate remove %s: %w", s.path, err)
		}
	}
	if err := SyncDir(dir); err != nil {
		return dropped, err
	}
	return dropped, nil
}

// rewriteSegment atomically replaces segment seq with one holding exactly
// recs under the given incarnation.
func rewriteSegment(dir string, seq, inc uint64, recs []Record) error {
	tmp, err := os.CreateTemp(dir, "seg-rewrite-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: truncate temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	buf := appendSegHeader(nil, inc, seq)
	for i := range recs {
		buf = appendFrame(buf, &recs[i])
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: truncate write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: truncate sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: truncate close: %w", err)
	}
	if err := os.Rename(tmp.Name(), segPath(dir, seq)); err != nil {
		return fmt.Errorf("wal: truncate rename: %w", err)
	}
	return nil
}
