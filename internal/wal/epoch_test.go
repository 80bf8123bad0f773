package wal

import (
	"encoding/binary"
	"os"
	"testing"

	"ordo/internal/oplog"
)

// appendN appends n single-byte records starting at payload base and
// flushes them.
func appendN(t *testing.T, l *Log, h *Handle, base, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		h.Append([]byte{byte(base + i)})
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
}

// writeFixtureSegment writes segment seq of incarnation inc as an older
// build would: a version 1 header, or a version 2 header carrying epoch,
// followed by recs.
func writeFixtureSegment(t *testing.T, dir string, seq, inc uint64, version uint32, epoch uint64, recs []Record) {
	t.Helper()
	buf := make([]byte, segHeaderLen, segHeaderV2Len)
	copy(buf[:8], segMagic)
	binary.LittleEndian.PutUint32(buf[8:12], version)
	binary.LittleEndian.PutUint64(buf[12:20], inc)
	binary.LittleEndian.PutUint64(buf[20:28], seq)
	if version == segVersion2 {
		buf = binary.LittleEndian.AppendUint64(buf, epoch)
	}
	for i := range recs {
		buf = appendFrame(buf, &recs[i])
	}
	if err := os.WriteFile(segPath(dir, seq), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// fixtureRecs returns n single-byte records of one handle, payloads and
// LSNs starting at base.
func fixtureRecs(base, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		k := uint64(base + i)
		recs[i] = Record{TS: 10 + k, H: 1, Seq: k + 1, LSN: k + 1, Data: []byte{byte(k)}}
	}
	return recs
}

// TestV1SegmentReadsAsEpochZero keeps the upgrade path honest: segments
// written by older builds — version 1, and version 2 with its epoch —
// recover unchanged next to the writer's, and only version 2 headers
// report an epoch to the regime record's legacy conversion.
func TestV1SegmentReadsAsEpochZero(t *testing.T) {
	dir := t.TempDir()
	writeFixtureSegment(t, dir, 1, 1, segVersion1, 0, fixtureRecs(0, 3))
	recs, info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e, err := LegacyEpoch(dir); info.Records != 3 || e != 0 || err != nil {
		t.Fatalf("info = %+v, legacy epoch (%d, %v), want 3 records at epoch 0", info, e, err)
	}
	for i, r := range recs {
		if r.Data[0] != byte(i) {
			t.Fatalf("record %d carries payload %d", i, r.Data[0])
		}
	}
	// A version 2 segment of a later incarnation, then the writer's own.
	writeFixtureSegment(t, dir, 2, 2, segVersion2, 3, fixtureRecs(3, 2))
	d := openTestDevice(t, dir, FileConfig{})
	if d.Incarnation() != 3 {
		t.Fatalf("writer incarnation %d over incarnations 1 and 2, want 3", d.Incarnation())
	}
	l := New(d, oplog.RawTSC{})
	appendN(t, l, l.NewHandle(), 5, 2)
	d.Close()
	recs, info, err = Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 7 || info.Incarnations != 3 {
		t.Fatalf("mixed versions: info = %+v, want 7 records in 3 incarnations", info)
	}
	for i, r := range recs {
		if r.Data[0] != byte(i) {
			t.Fatalf("record %d carries payload %d", i, r.Data[0])
		}
	}
	if e, err := LegacyEpoch(dir); e != 3 || err != nil {
		t.Fatalf("legacy epoch (%d, %v), want 3 from the version 2 header", e, err)
	}
}

// TestTruncateAfterEpochBump is the fenced-rejoin scenario: a leader
// wrote records across two incarnations, the new leader's cursor covers
// only a prefix, and the old tail must be cut without touching anything
// at or before the cursor — idempotently, because a crash mid-truncation
// re-runs it. Incarnation 1 is two version 2 segments from an older build
// whose epoch was bumped between them.
func TestTruncateAfterEpochBump(t *testing.T) {
	dir := t.TempDir()

	// Incarnation 1: 6 records, the last 3 under epoch 1.
	const inc1 = 1
	writeFixtureSegment(t, dir, 1, inc1, segVersion2, 0, fixtureRecs(0, 3))
	writeFixtureSegment(t, dir, 2, inc1, segVersion2, 1, fixtureRecs(3, 3))

	// Incarnation 2: 4 more records — the unshipped suffix regime.
	d := openTestDevice(t, dir, FileConfig{})
	if d.Incarnation() != inc1+1 {
		t.Fatalf("second open incarnation %d, want %d", d.Incarnation(), inc1+1)
	}
	l := New(d, oplog.RawTSC{})
	appendN(t, l, l.NewHandle(), 6, 4)
	d.Close()

	// The new leader acknowledged through (inc1, 4): drop record 5-6 of
	// incarnation 1 and all of incarnation 2.
	dropped, err := TruncateAfter(dir, inc1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 6 {
		t.Fatalf("dropped %d records, want 6", dropped)
	}
	recs, info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 4 || info.Incarnations != 1 {
		t.Fatalf("info = %+v, want 4 records in 1 incarnation", info)
	}
	for i, r := range recs {
		if r.Data[0] != byte(i) {
			t.Fatalf("kept record %d carries payload %d — an acked record was dropped or reordered", i, r.Data[0])
		}
	}

	// Idempotence: re-running at the same position changes nothing.
	dropped, err = TruncateAfter(dir, inc1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("second truncation dropped %d records", dropped)
	}
	recs2, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != len(recs) {
		t.Fatalf("second truncation changed the record count: %d vs %d", len(recs2), len(recs))
	}

	// Backfill over the truncated directory serves exactly the kept
	// prefix in (inc, seq) coordinates.
	stream, err := Backfill(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) != 4 {
		t.Fatalf("backfill yields %d records, want 4", len(stream))
	}
	for i, sr := range stream {
		if sr.Inc != inc1 || sr.Rec.LSN != uint64(i+1) {
			t.Fatalf("backfill record %d at (%d, %d), want (%d, %d)", i, sr.Inc, sr.Rec.LSN, inc1, i+1)
		}
	}

	// Truncating beyond the tail is a no-op; truncating after (0, 0)
	// empties the log.
	if dropped, err = TruncateAfter(dir, inc1+5, 99); err != nil || dropped != 0 {
		t.Fatalf("beyond-tail truncation: dropped=%d err=%v", dropped, err)
	}
	if dropped, err = TruncateAfter(dir, 0, 0); err != nil || dropped != 4 {
		t.Fatalf("truncation to the origin: dropped=%d err=%v, want 4", dropped, err)
	}
	if recs, _, err := Recover(dir); err != nil || len(recs) != 0 {
		t.Fatalf("after truncation to the origin: %d records, %v", len(recs), err)
	}
}
