package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On-disk layout. A log directory holds segments named seg-%08d.wal. Each
// segment starts with a fixed header:
//
//	magic "ORDOWAL1" (8) | version u32 | incarnation u64 | segment seq u64
//
// followed by record frames:
//
//	crc32c u32 | dataLen u32 | TS u64 | H u32 | Seq u64 | LSN u64 | data
//
// The CRC (Castagnoli) covers everything after itself: header fields and
// payload. All integers are little-endian. `incarnation` increments each
// time the directory is opened for writing; it scopes the (H, Seq) dedupe
// key and the timestamp order, both of which restart with the process.
// The writer emits version 1. Version 2 headers, written by builds that
// kept the failover epoch here before the regime record held it, append
// an epoch u64 that only LegacyEpoch reads.
const (
	segMagic       = "ORDOWAL1"
	segVersion1    = 1
	segVersion2    = 2
	segHeaderLen   = 8 + 4 + 8 + 8
	segHeaderV2Len = segHeaderLen + 8
	recHeaderLen   = 4 + 4 + 8 + 4 + 8 + 8

	// MaxRecordData bounds one record's payload; a recovered length field
	// beyond it is corruption, not an allocation request.
	MaxRecordData = 1 << 24

	// DefaultSegmentBytes is the rotation threshold.
	DefaultSegmentBytes = 64 << 20

	// DefaultSyncEvery is the SyncBatched fsync cadence.
	DefaultSyncEvery = 2 * time.Millisecond
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when a FileDevice fsyncs.
type SyncPolicy int

const (
	// SyncEachWrite fsyncs inside every Write: when Flush returns, the
	// flushed records are on stable storage — the full group-commit
	// guarantee, one fsync amortized across every record in the batch.
	SyncEachWrite SyncPolicy = iota

	// SyncBatched fsyncs from a background timer instead: Write returns
	// once the OS has the bytes, and the ack horizon may run ahead of
	// stable storage by up to SyncEvery. Survives process crashes (the
	// page cache persists), not power loss inside the window.
	SyncBatched
)

// FileConfig configures OpenFile.
type FileConfig struct {
	SegmentBytes int64         // rotation threshold (default 64 MiB)
	Sync         SyncPolicy    // default SyncEachWrite
	SyncEvery    time.Duration // SyncBatched cadence (default 2ms)
	Chaos        *Chaos        // fault injection; nil in production

	// SyncObserver, when set, receives every attempted fsync's duration
	// and outcome — the telemetry series that shows fsync stalls, which a
	// flush-level view blurs together with the write. Called with the
	// device lock held; must be quick and must not call back into the
	// device.
	SyncObserver func(d time.Duration, err error)
}

// FileDevice is a production Device over segmented log files. Call
// Recover on the directory first — it repairs any torn tail a crash left
// behind; OpenFile then starts a fresh segment under a new incarnation.
type FileDevice struct {
	dir string
	cfg FileConfig

	mu          sync.Mutex
	f           *os.File
	segSeq      uint64
	incarnation uint64
	size        int64 // bytes written to the current segment, torn tail included
	good        int64 // prefix of size that is whole, valid frames
	dirty       bool  // bytes written since the last successful fsync
	failed      error // sticky: set on the first sync failure
	stopc       chan struct{}
	done        chan struct{}
}

// OpenFile opens dir for appending, creating it if needed. It starts a
// new segment numbered after the highest existing one, under an
// incarnation one above the highest recorded in any segment header.
func OpenFile(dir string, cfg FileConfig) (*FileDevice, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = DefaultSyncEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var maxSeq, maxInc uint64
	for _, s := range segs {
		if s.seq > maxSeq {
			maxSeq = s.seq
		}
		if hdr, err := readSegHeader(s.path); err == nil && hdr.incarnation > maxInc {
			maxInc = hdr.incarnation
		}
	}
	d := &FileDevice{dir: dir, cfg: cfg, segSeq: maxSeq, incarnation: maxInc + 1}
	if err := d.openSegmentLocked(); err != nil {
		return nil, err
	}
	if cfg.Sync == SyncBatched {
		d.stopc = make(chan struct{})
		d.done = make(chan struct{})
		go d.syncLoop()
	}
	return d, nil
}

// Incarnation returns the device's incarnation number.
func (d *FileDevice) Incarnation() uint64 { return d.incarnation }

// Write implements Device. On error the segment may hold a prefix of the
// batch (whole frames) or a torn frame; the torn bytes are truncated away
// before the next write, so a retry appends after the last valid frame.
func (d *FileDevice) Write(recs []Record) error {
	for i := range recs {
		if len(recs[i].Data) > MaxRecordData {
			return fmt.Errorf("wal: record %d payload %d exceeds %d bytes", i, len(recs[i].Data), MaxRecordData)
		}
		if recs[i].H < 0 {
			return fmt.Errorf("wal: record %d has negative handle %d", i, recs[i].H)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed != nil {
		return d.failed
	}
	if d.size > d.good {
		// A previous write failed partway; drop the torn tail so the
		// retry lands where recovery will look for it.
		if err := d.f.Truncate(d.good); err != nil {
			return fmt.Errorf("wal: truncate torn tail of %s: %w", d.f.Name(), err)
		}
		d.size = d.good
	}
	if d.good >= d.cfg.SegmentBytes {
		if err := d.syncLocked(); err != nil {
			return err
		}
		if err := d.f.Close(); err != nil {
			return fmt.Errorf("wal: close %s: %w", d.f.Name(), err)
		}
		if err := d.openSegmentLocked(); err != nil {
			return err
		}
	}
	payload := make([]byte, 0, len(recs)*recHeaderLen)
	boundaries := make([]int, 0, len(recs))
	for i := range recs {
		payload = appendFrame(payload, &recs[i])
		boundaries = append(boundaries, len(payload))
	}
	attempt := payload
	var werr error
	if c := d.cfg.Chaos; c != nil {
		if cut, fault, ferr := c.drawWrite(boundaries, len(payload)); fault {
			attempt, werr = payload[:cut], ferr
		}
	}
	start := d.size
	var written int
	if len(attempt) > 0 {
		n, err := d.f.Write(attempt)
		written = n
		if err != nil && werr == nil {
			werr = err
		}
	}
	d.size = start + int64(written)
	if written > 0 {
		d.dirty = true
	}
	// Whole frames that reached the file stay: the caller re-queues and
	// rewrites the full batch after them (duplicates recovery dedupes by
	// (H, Seq)); only a trailing partial frame is truncated before the
	// retry.
	for _, b := range boundaries {
		if int64(b) > int64(written) {
			break
		}
		d.good = start + int64(b)
	}
	if werr != nil {
		return fmt.Errorf("wal: write %s: %w", d.f.Name(), werr)
	}
	if d.cfg.Sync == SyncEachWrite {
		return d.syncLocked()
	}
	return nil
}

// Sync forces an fsync of the current segment.
func (d *FileDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed != nil {
		return d.failed
	}
	return d.syncLocked()
}

// syncLocked fsyncs the current segment. A sync failure is sticky: after
// a failed fsync the kernel may have dropped the dirty pages while later
// appends would still land beyond the hole, so acknowledging anything
// past a failed sync could resurrect a gap as acknowledged data. The
// device refuses all further writes instead and the server degrades.
func (d *FileDevice) syncLocked() error {
	if !d.dirty {
		return nil
	}
	var start time.Time
	if d.cfg.SyncObserver != nil {
		start = time.Now()
	}
	err := d.syncOnceLocked()
	if d.cfg.SyncObserver != nil {
		d.cfg.SyncObserver(time.Since(start), err)
	}
	return err
}

// syncOnceLocked performs the fsync (or its injected stand-in) and makes
// any failure sticky.
func (d *FileDevice) syncOnceLocked() error {
	if c := d.cfg.Chaos; c != nil {
		delay, fail := c.drawSync()
		if delay > 0 {
			time.Sleep(delay)
		}
		if fail {
			d.failed = fmt.Errorf("wal: sync %s: %w", d.f.Name(), ErrInjectedFault)
			return d.failed
		}
	}
	if err := d.f.Sync(); err != nil {
		d.failed = fmt.Errorf("wal: sync %s: %w", d.f.Name(), err)
		return d.failed
	}
	d.dirty = false
	return nil
}

func (d *FileDevice) syncLoop() {
	defer close(d.done)
	t := time.NewTicker(d.cfg.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-d.stopc:
			return
		case <-t.C:
			d.mu.Lock()
			if d.failed == nil {
				d.syncLocked()
			}
			d.mu.Unlock()
		}
	}
}

// Close stops the background sync (if any), fsyncs and closes the
// current segment.
func (d *FileDevice) Close() error {
	if d.stopc != nil {
		close(d.stopc)
		<-d.done
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var err error
	if d.failed == nil {
		err = d.syncLocked()
	}
	if cerr := d.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}

func (d *FileDevice) openSegmentLocked() error {
	d.segSeq++
	path := segPath(d.dir, d.segSeq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(appendSegHeader(nil, d.incarnation, d.segSeq)); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	// Header and directory entry must be durable before any record is:
	// recovery treats a segment with a torn header as an empty tail.
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync segment header: %w", err)
	}
	if err := SyncDir(d.dir); err != nil {
		f.Close()
		return err
	}
	d.f = f
	d.size, d.good, d.dirty = segHeaderLen, segHeaderLen, false
	return nil
}

// appendSegHeader encodes a segment header onto dst.
func appendSegHeader(dst []byte, inc, seq uint64) []byte {
	dst = append(dst, segMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, segVersion1)
	dst = binary.LittleEndian.AppendUint64(dst, inc)
	return binary.LittleEndian.AppendUint64(dst, seq)
}

// appendFrame encodes one record frame onto dst.
func appendFrame(dst []byte, r *Record) []byte {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0) // crc placeholder
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Data)))
	dst = binary.LittleEndian.AppendUint64(dst, r.TS)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.H))
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, r.LSN)
	dst = append(dst, r.Data...)
	binary.LittleEndian.PutUint32(dst[off:off+4], crc32.Checksum(dst[off+4:], crcTable))
	return dst
}

// RecoveryInfo summarizes what Recover found and repaired.
type RecoveryInfo struct {
	Records        int   // records returned after dedupe
	Duplicates     int   // (H, Seq) duplicates dropped (retried flushes)
	TruncatedBytes int64 // torn-tail bytes truncated from the last segment
	Segments       int   // segment files scanned
	Incarnations   int   // distinct writer incarnations seen
}

// Recover scans a log directory and returns the replayable record
// sequence: frames are CRC-checked, a torn tail (short or corrupt frame)
// is physically truncated — it may exist only in the last segment, and is
// at most one flush deep because the writer repairs earlier tears before
// appending — duplicates from prefix-persisted-then-retried flushes are
// dropped by (H, Seq) within each incarnation, records are ordered by
// (TS, H, Seq) within each incarnation (incarnations concatenate in
// first-appearance order), LSNs are renumbered densely, and every
// incarnation's sequence must pass Verify. A missing or empty directory
// recovers to nothing.
func Recover(dir string) ([]Record, RecoveryInfo, error) {
	var info RecoveryInfo
	segs, err := listSegments(dir)
	if os.IsNotExist(err) {
		return nil, info, nil
	}
	if err != nil {
		return nil, info, err
	}
	info.Segments = len(segs)

	type group struct {
		inc  uint64
		recs []Record
	}
	var groups []*group
	byInc := make(map[uint64]*group)
	for i, s := range segs {
		last := i == len(segs)-1
		recs, hdr, keep, valid, err := readSegment(s.path, s.seq, last)
		if err != nil {
			return nil, info, err
		}
		if fi, err := os.Stat(s.path); err == nil && fi.Size() > keep {
			info.TruncatedBytes += fi.Size() - keep
			if err := os.Truncate(s.path, keep); err != nil {
				return nil, info, fmt.Errorf("wal: truncate torn tail of %s: %w", s.path, err)
			}
		}
		if !valid {
			continue
		}
		g := byInc[hdr.incarnation]
		if g == nil {
			g = &group{inc: hdr.incarnation}
			byInc[hdr.incarnation] = g
			groups = append(groups, g)
		}
		g.recs = append(g.recs, recs...)
	}

	var out []Record
	for _, g := range groups {
		recs, dups := Compact(g.recs)
		info.Duplicates += dups
		if err := Verify(recs); err != nil {
			return nil, info, fmt.Errorf("wal: recover incarnation %d: %w", g.inc, err)
		}
		out = append(out, recs...)
	}
	for i := range out {
		out[i].LSN = uint64(i + 1)
	}
	info.Records = len(out)
	info.Incarnations = len(groups)
	return out, info, nil
}

// readSegment parses one segment. keep is the byte length of the valid
// prefix (anything beyond it is a torn tail); valid is false for a
// segment with no usable header (empty, or torn inside the header). A
// torn tail or torn header is only legal in the directory's last segment:
// the writer repairs tears before appending, so an interior one means
// corruption no crash can explain.
func readSegment(path string, wantSeq uint64, last bool) (recs []Record, hdr segHeader, keep int64, valid bool, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, hdr, 0, false, err
	}
	if len(buf) < segHeaderLen || string(buf[:8]) != segMagic {
		if len(buf) == 0 {
			return nil, hdr, 0, false, nil // truncated to nothing by an earlier recovery
		}
		if last {
			return nil, hdr, 0, false, nil // torn header: caller truncates to zero
		}
		return nil, hdr, 0, false, fmt.Errorf("wal: %s: bad segment header", path)
	}
	hdrLen := segHeaderLen
	switch v := binary.LittleEndian.Uint32(buf[8:12]); v {
	case segVersion1:
	case segVersion2:
		hdrLen = segHeaderV2Len
		if len(buf) < hdrLen {
			if last {
				return nil, hdr, 0, false, nil // torn header: caller truncates to zero
			}
			return nil, hdr, 0, false, fmt.Errorf("wal: %s: bad segment header", path)
		}
	default:
		return nil, hdr, 0, false, fmt.Errorf("wal: %s: unsupported segment version %d", path, v)
	}
	hdr.incarnation = binary.LittleEndian.Uint64(buf[12:20])
	hdr.seq = binary.LittleEndian.Uint64(buf[20:28])
	if hdr.seq != wantSeq {
		return nil, hdr, 0, false, fmt.Errorf("wal: %s: header seq %d does not match filename", path, hdr.seq)
	}
	off := hdrLen
	for off < len(buf) {
		if off+recHeaderLen > len(buf) {
			break // short frame header
		}
		dataLen := binary.LittleEndian.Uint32(buf[off+4 : off+8])
		if dataLen > MaxRecordData {
			break // corrupt length
		}
		end := off + recHeaderLen + int(dataLen)
		if end > len(buf) {
			break // short payload
		}
		if binary.LittleEndian.Uint32(buf[off:off+4]) != crc32.Checksum(buf[off+4:end], crcTable) {
			break // bad checksum
		}
		recs = append(recs, Record{
			TS:   binary.LittleEndian.Uint64(buf[off+8 : off+16]),
			H:    int(binary.LittleEndian.Uint32(buf[off+16 : off+20])),
			Seq:  binary.LittleEndian.Uint64(buf[off+20 : off+28]),
			LSN:  binary.LittleEndian.Uint64(buf[off+28 : off+36]),
			Data: append([]byte(nil), buf[off+recHeaderLen:end]...),
		})
		off = end
	}
	if off < len(buf) && !last {
		return nil, hdr, 0, false, fmt.Errorf("wal: %s: torn frame at offset %d in a non-final segment", path, off)
	}
	return recs, hdr, int64(off), true, nil
}

type segFile struct {
	path string
	seq  uint64
}

// listSegments returns the directory's segments sorted by sequence.
func listSegments(dir string) ([]segFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segFile
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"), 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segFile{path: filepath.Join(dir, name), seq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.wal", seq))
}

type segHeader struct {
	incarnation uint64
	seq         uint64
	epoch       uint64 // version 2 headers only
}

func readSegHeader(path string) (segHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return segHeader{}, err
	}
	defer f.Close()
	// io.ReadFull, not f.Read: a bare Read may legally return fewer bytes
	// without error, and misparsing a partial header here could skip the
	// true max incarnation in OpenFile's scan — letting a new writer reuse
	// an incarnation number and weakening the (H, Seq) dedupe scope. The
	// buffer is the max header size; a v1 segment may legally be shorter,
	// so read the version-independent prefix first.
	var buf [segHeaderV2Len]byte
	if _, err := io.ReadFull(f, buf[:segHeaderLen]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return segHeader{}, fmt.Errorf("wal: %s: short segment header", path)
		}
		return segHeader{}, err
	}
	if string(buf[:8]) != segMagic {
		return segHeader{}, fmt.Errorf("wal: %s: bad magic", path)
	}
	hdr := segHeader{
		incarnation: binary.LittleEndian.Uint64(buf[12:20]),
		seq:         binary.LittleEndian.Uint64(buf[20:28]),
	}
	if binary.LittleEndian.Uint32(buf[8:12]) == segVersion2 {
		if _, err := io.ReadFull(f, buf[segHeaderLen:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return segHeader{}, fmt.Errorf("wal: %s: short segment header", path)
			}
			return segHeader{}, err
		}
		hdr.epoch = binary.LittleEndian.Uint64(buf[28:36])
	}
	return hdr, nil
}

// LegacyEpoch returns the highest failover fencing epoch in a log
// directory's version 2 segment headers, the one place builds before the
// regime record kept it besides their own sidecars; the record's one-time
// conversion reads it. A missing directory is epoch 0. Unreadable headers
// (the torn last segment a crash can leave) are skipped — a torn header
// means no record was ever written under it.
func LegacyEpoch(dir string) (uint64, error) {
	segs, err := listSegments(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var max uint64
	for _, s := range segs {
		hdr, err := readSegHeader(s.path)
		if err != nil {
			continue
		}
		if hdr.epoch > max {
			max = hdr.epoch
		}
	}
	return max, nil
}

// SyncDir fsyncs a directory so a freshly created or renamed entry in it
// is durable.
func SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir %s: %w", dir, err)
	}
	return nil
}
