package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Replication frames. The leader's repl.Source and a follower speak a
// four-message protocol over a dedicated connection, framed exactly like the
// client protocol (uvarint length prefix + payload) but with a larger frame
// bound because one WALBATCH can carry a full redo record (wal.MaxRecordData
// is 16 MiB).
//
// Stream positions are (incarnation, seq): the WAL device incarnation the
// records were written under, and the dense per-incarnation record sequence
// (the LSN the leader's live log assigned, which equals the record's index
// in the verified per-incarnation recovery order — DESIGN.md §13). A
// follower resumes by sending the last position it applied; resending at or
// before that position is always safe because replay is an ordered
// idempotent upsert, so the leader may round its resume point down.

// MaxReplFrame is the largest accepted replication frame payload. It must
// exceed wal.MaxRecordData plus framing overhead so any single redo record
// fits in one WALBATCH.
const MaxReplFrame = 1<<24 + 1<<16

// MaxReplBatch bounds the records of one WALBATCH frame.
const MaxReplBatch = 1 << 12

// ErrReplFrameTooBig rejects replication frames beyond MaxReplFrame.
var ErrReplFrameTooBig = fmt.Errorf("wire: repl frame exceeds %d bytes", MaxReplFrame)

// ReplKind identifies a replication message.
type ReplKind byte

// Replication message kinds.
const (
	replInvalid ReplKind = iota
	// ReplSubscribe is the follower's hello: resume streaming strictly
	// after position (Inc, Seq). (0, 0) asks for the full history.
	ReplSubscribe
	// ReplBatch carries a run of redo records in stream order, all from
	// incarnation Inc; each record carries its own Seq.
	ReplBatch
	// ReplAck is the follower's durable-apply cursor: it has appended
	// through (Inc, Seq) to its local WAL and replayed it.
	ReplAck
	// ReplWatermark is the leader's periodic heartbeat: its stream tail is
	// (Inc, Seq), its durable horizon timestamp is HorizonTS, and its
	// current Ordo uncertainty window is BoundaryTicks. Followers use the
	// tail for lag accounting and take the max of the leader's and their
	// own boundary when computing the safe-read watermark.
	ReplWatermark
	// ReplStatus is a node's leadership self-description. A leader sends
	// one immediately after accepting a SUBSCRIBE (so the follower adopts
	// the epoch before any batch), and any failover node answers a
	// status-query hello with one: Epoch and Role describe the regime it
	// believes in, (Inc, Seq) its own WAL incarnation and stream tail, and
	// (PrevInc, PrevSeq) its durable cursor into the previous regime's
	// stream — the truncation point a fenced ex-leader must roll back to
	// before resubscribing. Addr is its advertised repl address.
	ReplStatus
	// ReplReject fences a stale peer: the epochs disagree, so the
	// connection is refused. The frame carries the rejecting node's view
	// (same fields as ReplStatus, with Addr naming the leader it believes
	// in, if any) so the rejected side can re-bootstrap instead of
	// retrying blindly.
	ReplReject
)

// String returns the kind's wire-level name.
func (k ReplKind) String() string {
	switch k {
	case ReplSubscribe:
		return "SUBSCRIBE"
	case ReplBatch:
		return "WALBATCH"
	case ReplAck:
		return "WALACK"
	case ReplWatermark:
		return "WATERMARK"
	case ReplStatus:
		return "STATUS"
	case ReplReject:
		return "REJECT"
	}
	return fmt.Sprintf("ReplKind(%d)", byte(k))
}

// ReplRecord is one redo record inside a WALBATCH: the leader WAL record's
// per-incarnation sequence, commit timestamp, originating handle identity
// (carried for observability; followers re-key records under their own
// handles), and the opaque redo payload server.Replay understands.
type ReplRecord struct {
	Seq  uint64
	TS   uint64
	H    uint32
	HSeq uint64
	// Trace is the trace ID of the client request that produced this
	// record (0 for unsampled requests and backfilled history): it lets a
	// follower's apply span join the leader's trace.
	Trace uint64
	Data  []byte
}

// ReplMsg is one decoded replication frame. Inc and Seq are the position
// fields; their meaning per kind is documented on the kind constants. Recs
// is non-nil only for WALBATCH; HorizonTS and BoundaryTicks are meaningful
// only for WATERMARK; Role, PrevInc, PrevSeq and Addr only for
// STATUS/REJECT.
type ReplMsg struct {
	Kind ReplKind
	Inc  uint64
	Seq  uint64
	// Epoch is the fencing epoch the sender believes in. Every kind
	// carries it: a SUBSCRIBE with a stale epoch is rejected by the
	// leader, and a WALBATCH from a stale regime is rejected by the
	// follower. Zero means pre-failover traffic (legacy replication mode),
	// which is always accepted.
	Epoch uint64
	Recs  []ReplRecord
	// HorizonTS is the leader's durable horizon: the largest commit
	// timestamp in any flushed record.
	HorizonTS uint64
	// BoundaryTicks is the leader's Ordo uncertainty window in clock ticks.
	BoundaryTicks uint64
	// Role is the sender's numeric server.ReplRole (STATUS/REJECT only).
	Role uint64
	// PrevInc, PrevSeq are the sender's durable cursor into the previous
	// regime's stream (STATUS/REJECT only).
	PrevInc uint64
	PrevSeq uint64
	// Addr is an advertised repl address (STATUS: the sender's own;
	// REJECT: the leader the sender believes in, empty if unknown).
	Addr string
}

// AppendReplMsg appends m's payload encoding to dst.
func AppendReplMsg(dst []byte, m *ReplMsg) ([]byte, error) {
	dst = append(dst, byte(m.Kind))
	dst = binary.AppendUvarint(dst, m.Inc)
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = binary.AppendUvarint(dst, m.Epoch)
	switch m.Kind {
	case ReplSubscribe, ReplAck:
		// Position and epoch only.
	case ReplBatch:
		if len(m.Recs) > MaxReplBatch {
			return nil, fmt.Errorf("wire: WALBATCH has %d records, limit %d", len(m.Recs), MaxReplBatch)
		}
		dst = binary.AppendUvarint(dst, uint64(len(m.Recs)))
		for i := range m.Recs {
			rec := &m.Recs[i]
			dst = binary.AppendUvarint(dst, rec.Seq)
			dst = binary.AppendUvarint(dst, rec.TS)
			dst = binary.AppendUvarint(dst, uint64(rec.H))
			dst = binary.AppendUvarint(dst, rec.HSeq)
			dst = binary.AppendUvarint(dst, rec.Trace)
			dst = binary.AppendUvarint(dst, uint64(len(rec.Data)))
			dst = append(dst, rec.Data...)
		}
	case ReplWatermark:
		dst = binary.AppendUvarint(dst, m.HorizonTS)
		dst = binary.AppendUvarint(dst, m.BoundaryTicks)
	case ReplStatus, ReplReject:
		dst = binary.AppendUvarint(dst, m.Role)
		dst = binary.AppendUvarint(dst, m.PrevInc)
		dst = binary.AppendUvarint(dst, m.PrevSeq)
		return appendString(dst, m.Addr, MaxAddr, "status addr")
	default:
		return nil, fmt.Errorf("wire: cannot encode %v", m.Kind)
	}
	return dst, nil
}

// DecodeReplMsg decodes one replication payload; the whole payload must be
// consumed. Record Data slices alias b and are only valid while b is.
func DecodeReplMsg(b []byte) (ReplMsg, error) {
	var m ReplMsg
	if len(b) == 0 {
		return m, fmt.Errorf("repl kind: %w", ErrTruncated)
	}
	m.Kind = ReplKind(b[0])
	b = b[1:]
	var err error
	if m.Inc, b, err = uvarint(b); err != nil {
		return m, fmt.Errorf("repl inc: %w", err)
	}
	if m.Seq, b, err = uvarint(b); err != nil {
		return m, fmt.Errorf("repl seq: %w", err)
	}
	if m.Epoch, b, err = uvarint(b); err != nil {
		return m, fmt.Errorf("repl epoch: %w", err)
	}
	switch m.Kind {
	case ReplSubscribe, ReplAck:
		// Position and epoch only.
	case ReplBatch:
		var n int
		if n, b, err = count(b, MaxReplBatch, "WALBATCH record"); err != nil {
			return m, err
		}
		m.Recs = make([]ReplRecord, n)
		for i := range m.Recs {
			rec := &m.Recs[i]
			if rec.Seq, b, err = uvarint(b); err != nil {
				return m, fmt.Errorf("record %d seq: %w", i, err)
			}
			if rec.TS, b, err = uvarint(b); err != nil {
				return m, fmt.Errorf("record %d ts: %w", i, err)
			}
			var h uint64
			if h, b, err = uvarint(b); err != nil {
				return m, fmt.Errorf("record %d handle: %w", i, err)
			}
			if h > 1<<32-1 {
				return m, fmt.Errorf("wire: record %d handle id %d out of range", i, h)
			}
			rec.H = uint32(h)
			if rec.HSeq, b, err = uvarint(b); err != nil {
				return m, fmt.Errorf("record %d handle seq: %w", i, err)
			}
			if rec.Trace, b, err = uvarint(b); err != nil {
				return m, fmt.Errorf("record %d trace: %w", i, err)
			}
			if rec.Data, b, err = blob(b, MaxFrame, "data"); err != nil {
				return m, fmt.Errorf("record %d: %w", i, err)
			}
		}
	case ReplWatermark:
		if m.HorizonTS, b, err = uvarint(b); err != nil {
			return m, fmt.Errorf("watermark horizon: %w", err)
		}
		if m.BoundaryTicks, b, err = uvarint(b); err != nil {
			return m, fmt.Errorf("watermark boundary: %w", err)
		}
	case ReplStatus, ReplReject:
		if m.Role, b, err = uvarint(b); err != nil {
			return m, fmt.Errorf("status role: %w", err)
		}
		if m.PrevInc, b, err = uvarint(b); err != nil {
			return m, fmt.Errorf("status prev inc: %w", err)
		}
		if m.PrevSeq, b, err = uvarint(b); err != nil {
			return m, fmt.Errorf("status prev seq: %w", err)
		}
		if m.Addr, b, err = str(b, MaxAddr, "status addr"); err != nil {
			return m, err
		}
	default:
		return m, fmt.Errorf("wire: unknown repl kind %d", byte(m.Kind))
	}
	if len(b) != 0 {
		return m, fmt.Errorf("wire: %d trailing bytes after %v", len(b), m.Kind)
	}
	return m, nil
}

// WriteReplFrame writes one length-prefixed replication frame to w.
func WriteReplFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxReplFrame {
		return ErrReplFrameTooBig
	}
	var hdr [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadReplFrame reads one length-prefixed replication frame from r into buf
// (grown as needed); the payload is only valid until the next call with the
// same buf.
func ReadReplFrame(r FrameReader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return buf, err
	}
	if n > MaxReplFrame {
		return buf, ErrReplFrameTooBig
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	return buf, nil
}

// errReplHello distinguishes a malformed subscription from transport errors.
var errReplHello = errors.New("wire: expected SUBSCRIBE")

// ReadSubscribe reads and validates a follower's SUBSCRIBE hello, returning
// the full decoded message (resume position Inc/Seq plus the subscriber's
// epoch).
func ReadSubscribe(r FrameReader, buf []byte) (ReplMsg, []byte, error) {
	m, buf, err := ReadReplHello(r, buf)
	if err != nil {
		return m, buf, err
	}
	if m.Kind != ReplSubscribe {
		return m, buf, fmt.Errorf("%w, got %v", errReplHello, m.Kind)
	}
	return m, buf, nil
}

// ReadReplHello reads and decodes one replication frame — the first frame
// of a connection, which a failover node demuxes by kind (SUBSCRIBE starts
// a streaming session, STATUS asks for a one-shot leadership answer).
func ReadReplHello(r FrameReader, buf []byte) (ReplMsg, []byte, error) {
	buf, err := ReadReplFrame(r, buf)
	if err != nil {
		return ReplMsg{}, buf, err
	}
	m, err := DecodeReplMsg(buf)
	if err != nil {
		return m, buf, err
	}
	return m, buf, nil
}
