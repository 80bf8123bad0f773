package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Codec errors. Decoders return ErrTruncated for payloads that end inside a
// field, ErrFrameTooBig for hostile length prefixes, and wrap both in enough
// context to name the offending field.
var (
	ErrTruncated   = errors.New("wire: truncated payload")
	ErrFrameTooBig = fmt.Errorf("wire: frame exceeds %d bytes", MaxFrame)
)

// uvarint decodes one unsigned varint from b, returning the value and the
// remaining bytes.
func uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, b[n:], nil
}

// count decodes a repeated-element count and validates it against both the
// protocol limit and the bytes actually remaining (each element takes at
// least one byte), so a hostile prefix cannot force a huge allocation.
func count(b []byte, limit int, what string) (int, []byte, error) {
	v, rest, err := uvarint(b)
	if err != nil {
		return 0, nil, fmt.Errorf("%s count: %w", what, err)
	}
	if v > uint64(limit) {
		return 0, nil, fmt.Errorf("wire: %s count %d exceeds limit %d", what, v, limit)
	}
	if v > uint64(len(rest)) {
		return 0, nil, fmt.Errorf("%s count %d beyond payload: %w", what, v, ErrTruncated)
	}
	return int(v), rest, nil
}

// appendString appends s as its byte length followed by its bytes,
// refusing a string longer than limit.
func appendString(dst []byte, s string, limit int, what string) ([]byte, error) {
	if len(s) > limit {
		return nil, fmt.Errorf("wire: %s %d bytes, limit %d", what, len(s), limit)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...), nil
}

// blob decodes a length-prefixed byte string of at most limit bytes; the
// result aliases b.
func blob(b []byte, limit int, what string) ([]byte, []byte, error) {
	n, rest, err := count(b, limit, what+" byte")
	if err != nil {
		return nil, nil, err
	}
	return rest[:n:n], rest[n:], nil
}

// str is blob copied into a string, so it never aliases b.
func str(b []byte, limit int, what string) (string, []byte, error) {
	s, rest, err := blob(b, limit, what)
	return string(s), rest, err
}

// appendRow appends a row as ncols followed by each column.
func appendRow(dst []byte, vals []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// row decodes a column-count-prefixed row. The returned slice never aliases
// b, so frame buffers can be reused: it is freshly allocated when a is nil,
// or carved from the arena (valid until its Reset) otherwise. A zero-column
// row decodes to a non-nil empty slice to stay distinguishable from
// "no row".
func row(b []byte, a *Arena) ([]uint64, []byte, error) {
	n, rest, err := count(b, MaxCols, "column")
	if err != nil {
		return nil, nil, err
	}
	var vals []uint64
	if a != nil {
		vals = a.vals64(n)
	} else {
		vals = make([]uint64, n)
	}
	for i := range vals {
		vals[i], rest, err = uvarint(rest)
		if err != nil {
			return nil, nil, fmt.Errorf("column %d: %w", i, err)
		}
	}
	return vals, rest, nil
}

// AppendRequest appends r's payload encoding to dst and returns the
// extended slice. It validates structure: unknown opcodes and nested
// composite ops are errors, so every encodable request is decodable.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	op := byte(r.Op)
	if op&TraceFlag != 0 {
		return nil, fmt.Errorf("wire: cannot encode %v", r.Op)
	}
	if r.Trace != 0 {
		dst = append(dst, op|TraceFlag)
		dst = binary.AppendUvarint(dst, r.Trace)
	} else {
		dst = append(dst, op)
	}
	switch r.Op {
	case OpGet, OpDelete:
		dst = binary.AppendUvarint(dst, uint64(r.Table))
		dst = binary.AppendUvarint(dst, r.Key)
	case OpPut, OpInsert:
		dst = binary.AppendUvarint(dst, uint64(r.Table))
		dst = binary.AppendUvarint(dst, r.Key)
		if len(r.Vals) > MaxCols {
			return nil, fmt.Errorf("wire: %v row has %d columns, limit %d", r.Op, len(r.Vals), MaxCols)
		}
		dst = appendRow(dst, r.Vals)
	case OpTxn:
		if len(r.Ops) > MaxTxnOps {
			return nil, fmt.Errorf("wire: TXN has %d ops, limit %d", len(r.Ops), MaxTxnOps)
		}
		dst = binary.AppendUvarint(dst, uint64(len(r.Ops)))
		for i := range r.Ops {
			if !r.Ops[i].Op.Simple() {
				return nil, fmt.Errorf("wire: TXN op %d: %v is not a simple op", i, r.Ops[i].Op)
			}
			var err error
			dst, err = AppendRequest(dst, &r.Ops[i])
			if err != nil {
				return nil, err
			}
		}
	case OpStats:
		// No body.
	case OpGetAt:
		dst = binary.AppendUvarint(dst, uint64(r.Table))
		dst = binary.AppendUvarint(dst, r.Key)
		dst = binary.AppendUvarint(dst, r.MinTS)
	default:
		return nil, fmt.Errorf("wire: cannot encode %v", r.Op)
	}
	return dst, nil
}

// DecodeRequest decodes one request payload. The whole payload must be
// consumed; trailing bytes are a protocol error. Decoded slices never alias
// b.
func DecodeRequest(b []byte) (Request, error) {
	return DecodeRequestArena(b, nil)
}

// DecodeRequestArena is DecodeRequest with the decoded row and sub-op
// slices carved from a (freshly allocated when a is nil): the zero-alloc
// decode path for a server worker that owns the requests only until the
// batch finishes. The decoded request is valid until a.Reset; it still
// never aliases b.
func DecodeRequestArena(b []byte, a *Arena) (Request, error) {
	r, rest, err := decodeRequest(b, false, a)
	if err != nil {
		return Request{}, err
	}
	if len(rest) != 0 {
		return Request{}, fmt.Errorf("wire: %d trailing bytes after %v request", len(rest), r.Op)
	}
	return r, nil
}

func decodeRequest(b []byte, inTxn bool, a *Arena) (Request, []byte, error) {
	var r Request
	if len(b) == 0 {
		return r, nil, fmt.Errorf("request opcode: %w", ErrTruncated)
	}
	r.Op = Op(b[0] &^ TraceFlag)
	traced := b[0]&TraceFlag != 0
	b = b[1:]
	if traced {
		if inTxn {
			return r, nil, errors.New("wire: trace flag on TXN sub-op")
		}
		var err error
		r.Trace, b, err = uvarint(b)
		if err != nil {
			return r, nil, fmt.Errorf("%v trace: %w", r.Op, err)
		}
		if r.Trace == 0 {
			return r, nil, fmt.Errorf("wire: %v trace flag with zero trace ID", r.Op)
		}
	}
	switch r.Op {
	case OpGet, OpPut, OpInsert, OpDelete:
		rest, err := r.tableKey(b)
		if err != nil {
			return r, nil, err
		}
		if r.Op == OpPut || r.Op == OpInsert {
			r.Vals, rest, err = row(rest, a)
			if err != nil {
				return r, nil, fmt.Errorf("%v row: %w", r.Op, err)
			}
		}
		return r, rest, nil
	case OpTxn:
		if inTxn {
			return r, nil, errors.New("wire: nested TXN")
		}
		n, rest, err := count(b, MaxTxnOps, "TXN op")
		if err != nil {
			return r, nil, err
		}
		if a != nil {
			r.Ops = a.requests(n)
		} else {
			r.Ops = make([]Request, n)
		}
		for i := range r.Ops {
			r.Ops[i], rest, err = decodeRequest(rest, true, a)
			if err != nil {
				return r, nil, fmt.Errorf("TXN op %d: %w", i, err)
			}
			if !r.Ops[i].Op.Simple() {
				return r, nil, fmt.Errorf("wire: TXN op %d: %v is not a simple op", i, r.Ops[i].Op)
			}
		}
		return r, rest, nil
	case OpStats:
		return r, b, nil
	case OpGetAt:
		if inTxn {
			return r, nil, errors.New("wire: GET_AT inside TXN")
		}
		rest, err := r.tableKey(b)
		if err != nil {
			return r, nil, err
		}
		r.MinTS, rest, err = uvarint(rest)
		if err != nil {
			return r, nil, fmt.Errorf("%v min_ts: %w", r.Op, err)
		}
		return r, rest, nil
	}
	return r, nil, fmt.Errorf("wire: unknown opcode %d", byte(r.Op))
}

// tableKey decodes the table id and key every keyed request starts with.
func (r *Request) tableKey(b []byte) ([]byte, error) {
	table, rest, err := uvarint(b)
	if err != nil {
		return nil, fmt.Errorf("%v table: %w", r.Op, err)
	}
	if table > 1<<31 {
		return nil, fmt.Errorf("wire: %v table id %d out of range", r.Op, table)
	}
	r.Table = uint32(table)
	if r.Key, rest, err = uvarint(rest); err != nil {
		return nil, fmt.Errorf("%v key: %w", r.Op, err)
	}
	return rest, nil
}

// AppendResponse appends r's payload encoding to dst.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	dst = append(dst, byte(r.Kind), byte(r.Status))
	switch r.Kind {
	case RespEmpty:
		dst = binary.AppendUvarint(dst, r.TS)
		// NOT_LEADER is the only status that carries a redirect address;
		// gating on it keeps every other RespEmpty encoding byte-identical
		// to the pre-failover protocol.
		if r.Status == StatusNotLeader {
			return appendString(dst, r.Redirect, MaxAddr, "redirect")
		}
	case RespRow:
		if len(r.Row) > MaxCols {
			return nil, fmt.Errorf("wire: response row has %d columns, limit %d", len(r.Row), MaxCols)
		}
		dst = appendRow(dst, r.Row)
	case RespBatch:
		if len(r.Batch) > MaxTxnOps {
			return nil, fmt.Errorf("wire: response batch has %d entries, limit %d", len(r.Batch), MaxTxnOps)
		}
		dst = binary.AppendUvarint(dst, uint64(len(r.Batch)))
		for i := range r.Batch {
			if k := r.Batch[i].Kind; k != RespEmpty && k != RespRow {
				return nil, fmt.Errorf("wire: batch entry %d: %v cannot nest", i, k)
			}
			var err error
			dst, err = AppendResponse(dst, &r.Batch[i])
			if err != nil {
				return nil, err
			}
		}
	case RespStats:
		if r.Stats == nil {
			return nil, errors.New("wire: STATS response without stats body")
		}
		s := r.Stats
		if len(s.Pairs) > MaxStats {
			return nil, fmt.Errorf("wire: STATS has %d series, limit %d", len(s.Pairs), MaxStats)
		}
		var err error
		if dst, err = appendString(dst, s.Protocol, MaxProtoName, "protocol name"); err != nil {
			return nil, err
		}
		dst = binary.AppendUvarint(dst, uint64(len(s.Pairs)))
		for _, p := range s.Pairs {
			if dst, err = appendString(dst, p.Name, MaxStatName, "series name"); err != nil {
				return nil, err
			}
			dst = binary.AppendUvarint(dst, p.Value)
		}
	default:
		return nil, fmt.Errorf("wire: cannot encode %v", r.Kind)
	}
	return dst, nil
}

// DecodeResponse decodes one response payload; the whole payload must be
// consumed.
func DecodeResponse(b []byte) (Response, error) {
	r, rest, err := decodeResponse(b, false)
	if err != nil {
		return Response{}, err
	}
	if len(rest) != 0 {
		return Response{}, fmt.Errorf("wire: %d trailing bytes after %v response", len(rest), r.Kind)
	}
	return r, nil
}

func decodeResponse(b []byte, inBatch bool) (Response, []byte, error) {
	var r Response
	if len(b) < 2 {
		return r, nil, fmt.Errorf("response header: %w", ErrTruncated)
	}
	r.Kind, r.Status = RespKind(b[0]), Status(b[1])
	if r.Status > StatusUncertain {
		return r, nil, fmt.Errorf("wire: unknown status %d", byte(r.Status))
	}
	b = b[2:]
	switch r.Kind {
	case RespEmpty:
		var err error
		r.TS, b, err = uvarint(b)
		if err != nil {
			return r, nil, fmt.Errorf("response ts: %w", err)
		}
		if r.Status == StatusNotLeader {
			var sz uint64
			if sz, b, err = uvarint(b); err != nil {
				return r, nil, fmt.Errorf("redirect len: %w", err)
			}
			if sz > MaxAddr {
				return r, nil, fmt.Errorf("wire: redirect %d bytes, limit %d", sz, MaxAddr)
			}
			if sz > uint64(len(b)) {
				return r, nil, fmt.Errorf("redirect %d bytes beyond payload: %w", sz, ErrTruncated)
			}
			r.Redirect = string(b[:sz])
			b = b[sz:]
		}
		return r, b, nil
	case RespRow:
		var err error
		r.Row, b, err = row(b, nil)
		if err != nil {
			return r, nil, fmt.Errorf("response row: %w", err)
		}
		return r, b, nil
	case RespBatch:
		if inBatch {
			return r, nil, errors.New("wire: nested response batch")
		}
		n, rest, err := count(b, MaxTxnOps, "batch entry")
		if err != nil {
			return r, nil, err
		}
		r.Batch = make([]Response, n)
		for i := range r.Batch {
			r.Batch[i], rest, err = decodeResponse(rest, true)
			if err != nil {
				return r, nil, fmt.Errorf("batch entry %d: %w", i, err)
			}
			if k := r.Batch[i].Kind; k != RespEmpty && k != RespRow {
				return r, nil, fmt.Errorf("wire: batch entry %d: %v cannot nest", i, k)
			}
		}
		return r, rest, nil
	case RespStats:
		proto, rest, err := str(b, MaxProtoName, "protocol name")
		if err != nil {
			return r, nil, err
		}
		n, rest, err := count(rest, MaxStats, "STATS series")
		if err != nil {
			return r, nil, err
		}
		var pairs []Stat
		if n > 0 {
			pairs = make([]Stat, n)
		}
		for i := range pairs {
			if pairs[i].Name, rest, err = str(rest, MaxStatName, "series name"); err != nil {
				return r, nil, fmt.Errorf("STATS series %d: %w", i, err)
			}
			if pairs[i].Value, rest, err = uvarint(rest); err != nil {
				return r, nil, fmt.Errorf("STATS series %d value: %w", i, err)
			}
		}
		r.Stats = NewStats(proto, pairs)
		return r, rest, nil
	}
	return r, nil, fmt.Errorf("wire: unknown response kind %d", byte(r.Kind))
}

// WriteFrame writes one length-prefixed frame to w.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooBig
	}
	var hdr [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// FrameReader is the reader a frame is parsed from; a *bufio.Reader
// satisfies it.
type FrameReader interface {
	io.Reader
	io.ByteReader
}

// ReadFrame reads one length-prefixed frame from r into buf (grown as
// needed) and returns the payload slice, which is only valid until the next
// call with the same buf.
func ReadFrame(r FrameReader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return buf, err
	}
	if n > MaxFrame {
		return buf, ErrFrameTooBig
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
