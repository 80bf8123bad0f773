package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ordo/internal/db"
)

// reqRoundTrip encodes, decodes and compares one request.
func reqRoundTrip(t *testing.T, r Request) {
	t.Helper()
	payload, err := AppendRequest(nil, &r)
	if err != nil {
		t.Fatalf("encode %v: %v", r.Op, err)
	}
	got, err := DecodeRequest(payload)
	if err != nil {
		t.Fatalf("decode %v: %v", r.Op, err)
	}
	if !reflect.DeepEqual(normalizeReq(r), normalizeReq(got)) {
		t.Fatalf("round trip %v:\n sent %+v\n got  %+v", r.Op, r, got)
	}
}

// normalizeReq maps nil and empty slices to a canonical form for comparison:
// the wire cannot distinguish a nil Vals from an empty one on ops that
// always carry a row, but PUT/INSERT with nil Vals legitimately decode to
// an empty row.
func normalizeReq(r Request) Request {
	if len(r.Vals) == 0 {
		r.Vals = nil
	}
	if len(r.Ops) == 0 {
		r.Ops = nil
	} else {
		ops := make([]Request, len(r.Ops))
		for i := range r.Ops {
			ops[i] = normalizeReq(r.Ops[i])
		}
		r.Ops = ops
	}
	return r
}

func normalizeResp(r Response) Response {
	if len(r.Row) == 0 && r.Kind != RespRow {
		r.Row = nil
	}
	if len(r.Batch) == 0 {
		r.Batch = nil
	} else {
		b := make([]Response, len(r.Batch))
		for i := range r.Batch {
			b[i] = normalizeResp(r.Batch[i])
		}
		r.Batch = b
	}
	return r
}

func TestRequestRoundTrip(t *testing.T) {
	maxRow := make([]uint64, MaxCols)
	for i := range maxRow {
		maxRow[i] = rand.Uint64()
	}
	cases := []Request{
		{Op: OpGet, Table: 0, Key: 0},
		{Op: OpGet, Table: 7, Key: math.MaxUint64},
		{Op: OpDelete, Table: 1 << 31, Key: 42},
		{Op: OpPut, Table: 3, Key: 9, Vals: []uint64{1, 0, math.MaxUint64}},
		{Op: OpPut, Table: 0, Key: 1, Vals: []uint64{}}, // zero-column row
		{Op: OpInsert, Table: 0, Key: 5, Vals: maxRow},  // max-length payload
		{Op: OpStats},
		{Op: OpGetAt, Table: 2, Key: 11, MinTS: math.MaxUint64},
		{Op: OpGetAt}, // zero MinTS: "any watermark"
		{Op: OpTxn},   // empty batch
		{Op: OpTxn, Ops: []Request{
			{Op: OpGet, Table: 0, Key: 1},
			{Op: OpPut, Table: 0, Key: 2, Vals: []uint64{10, 20}},
			{Op: OpInsert, Table: 1, Key: 3, Vals: []uint64{}},
			{Op: OpDelete, Table: 0, Key: 4},
		}},
	}
	for _, r := range cases {
		reqRoundTrip(t, r)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	maxRow := make([]uint64, MaxCols)
	for i := range maxRow {
		maxRow[i] = rand.Uint64()
	}
	cases := []Response{
		{Kind: RespEmpty, Status: StatusOK},
		{Kind: RespEmpty, Status: StatusBusy},
		{Kind: RespEmpty, Status: StatusErr},
		{Kind: RespEmpty, Status: StatusOK, TS: math.MaxUint64},
		{Kind: RespEmpty, Status: StatusNotYet, TS: 12345},
		{Kind: RespRow, Status: StatusOK, Row: []uint64{1, 2, 3}},
		{Kind: RespRow, Status: StatusOK, Row: []uint64{}}, // zero-column row
		{Kind: RespRow, Status: StatusOK, Row: maxRow},     // max-length payload
		{Kind: RespBatch, Status: StatusConflict},
		{Kind: RespBatch, Status: StatusOK, Batch: []Response{
			{Kind: RespRow, Status: StatusOK, Row: []uint64{9}},
			{Kind: RespEmpty, Status: StatusNotFound},
			{Kind: RespEmpty, Status: StatusOK},
		}},
		{Kind: RespStats, Status: StatusOK, Stats: NewStats("OCC_ORDO", []Stat{
			{"ordod_commits_total", 12}, {"ordod_aborts_total", 3},
			{"ordod_wal_unacked_writes_total", 6}, {"ordod_repl_watermark_ns", math.MaxUint64},
		})},
		{Kind: RespStats, Status: StatusOK, Stats: &Stats{}},
	}
	for _, r := range cases {
		payload, err := AppendResponse(nil, &r)
		if err != nil {
			t.Fatalf("encode %v: %v", r.Kind, err)
		}
		got, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("decode %v: %v", r.Kind, err)
		}
		if !reflect.DeepEqual(normalizeResp(r), normalizeResp(got)) {
			t.Fatalf("round trip %v:\n sent %+v\n got  %+v", r.Kind, r, got)
		}
	}
}

// TestStatsCodec covers the STATS body: a (series name, value) list that
// round-trips exact uint64 values and fills the typed fields, and whose
// pair count, name length, truncation and trailing bytes are all checked.
func TestStatsCodec(t *testing.T) {
	encode := func(s *Stats) ([]byte, error) {
		return AppendResponse(nil, &Response{Kind: RespStats, Status: StatusOK, Stats: s})
	}
	longest := string(bytes.Repeat([]byte{'x'}, MaxStatName))
	sent := NewStats("HEKATON_ORDO", []Stat{
		{"ordod_commits_total", 7},
		{"ordod_clock_cmps_total", math.MaxUint64},
		{"ordod_clock_uncertain_total", 1<<53 + 1}, // not representable as float64
		{`ordod_ops_total{op="get"}`, 3},
		{"ordod_repl_role", 2},
		{longest, 9},
	})
	payload, err := encode(sent)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Stats, sent) {
		t.Fatalf("round trip:\n sent %+v\n got  %+v", sent, got.Stats)
	}
	st := got.Stats
	if st.Commits != 7 || st.ClockCmps != math.MaxUint64 || st.ClockUncertain != 1<<53+1 || st.ReplRoleCode != 2 {
		t.Fatalf("typed fields not filled: %+v", st)
	}
	if st.Value(`ordod_ops_total{op="get"}`) != 3 || st.Value(longest) != 9 || st.Value("ordod_absent") != 0 {
		t.Fatal("Value lookup wrong")
	}

	// Pair-count cap, on both sides.
	many := make([]Stat, MaxStats+1)
	for i := range many {
		many[i] = Stat{Name: "s", Value: uint64(i)}
	}
	if _, err := encode(NewStats("OCC", many[:MaxStats])); err != nil {
		t.Fatalf("MaxStats pairs rejected: %v", err)
	}
	if _, err := encode(NewStats("OCC", many)); err == nil {
		t.Fatal("encode accepted MaxStats+1 pairs")
	}
	over := append([]byte{byte(RespStats), 0, 0}, binary.AppendUvarint(nil, MaxStats+1)...)
	over = append(over, bytes.Repeat([]byte{1, 's', 0}, MaxStats+1)...)
	if _, err := DecodeResponse(over); err == nil {
		t.Fatal("decode accepted MaxStats+1 pairs")
	}

	// Name-length cap, on both sides.
	if _, err := encode(NewStats("OCC", []Stat{{longest + "x", 1}})); err == nil {
		t.Fatal("encode accepted a name past MaxStatName")
	}
	long := append([]byte{byte(RespStats), 0, 0, 1}, binary.AppendUvarint(nil, MaxStatName+1)...)
	long = append(long, bytes.Repeat([]byte{'x'}, MaxStatName+1)...)
	long = append(long, 0)
	if _, err := DecodeResponse(long); err == nil {
		t.Fatal("decode accepted a name past MaxStatName")
	}

	// Every proper prefix is a truncated pair (or header), and trailing
	// bytes after the last pair are rejected.
	for n := 2; n < len(payload); n++ {
		if _, err := DecodeResponse(payload[:n]); err == nil {
			t.Fatalf("decode accepted a payload truncated to %d of %d bytes", n, len(payload))
		}
	}
	if _, err := DecodeResponse(append(payload[:len(payload):len(payload)], 0)); err == nil {
		t.Fatal("decode accepted trailing bytes")
	}
}

// TestRequestRoundTripRandom is the codec property test: every randomly
// generated valid request survives encode→decode unchanged.
func TestRequestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	simple := func() Request {
		r := Request{
			Op:    []Op{OpGet, OpPut, OpInsert, OpDelete}[rng.Intn(4)],
			Table: uint32(rng.Intn(8)),
			Key:   rng.Uint64(),
		}
		if r.Op == OpPut || r.Op == OpInsert {
			r.Vals = make([]uint64, rng.Intn(12))
			for i := range r.Vals {
				r.Vals[i] = rng.Uint64()
			}
		}
		return r
	}
	for i := 0; i < 2000; i++ {
		var r Request
		switch rng.Intn(4) {
		case 0:
			r = Request{Op: OpStats}
		case 1:
			r = Request{Op: OpTxn, Ops: make([]Request, rng.Intn(10))}
			for i := range r.Ops {
				r.Ops[i] = simple()
			}
		default:
			r = simple()
		}
		reqRoundTrip(t, r)
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"unknown op", []byte{0xEE, 0, 0}},
		{"truncated get", []byte{byte(OpGet), 5}},
		{"huge column count", []byte{byte(OpPut), 0, 0, 0xFF, 0xFF, 0xFF, 0x7F}},
		{"nested txn", append([]byte{byte(OpTxn), 1}, byte(OpTxn), 0)},
		{"stats op in txn", []byte{byte(OpTxn), 1, byte(OpStats)}},
		{"get_at in txn", []byte{byte(OpTxn), 1, byte(OpGetAt), 0, 0, 0}},
		{"truncated get_at", []byte{byte(OpGetAt), 0, 5}},
		{"trailing bytes", []byte{byte(OpStats), 0}},
	}
	for _, tc := range cases {
		if _, err := DecodeRequest(tc.b); err == nil {
			t.Errorf("%s: decode accepted %x", tc.name, tc.b)
		}
	}
	respCases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"header only", []byte{byte(RespRow)}},
		{"unknown kind", []byte{0xEE, 0}},
		{"unknown status", []byte{byte(RespEmpty), 0xEE}},
		{"nested batch", []byte{byte(RespBatch), 0, 1, byte(RespBatch), 0, 0, 0}},
		{"stats without body", []byte{byte(RespStats), 0}},
		{"empty without ts", []byte{byte(RespEmpty), 0}},
		{"trailing bytes", []byte{byte(RespEmpty), 0, 0, 0}},
	}
	for _, tc := range respCases {
		if _, err := DecodeResponse(tc.b); err == nil {
			t.Errorf("%s: decode accepted %x", tc.name, tc.b)
		}
	}
}

// TestStatusRoundTrip checks both directions of the error mapping: every
// status survives Err→StatusOf, and every engine error maps to its code.
func TestStatusRoundTrip(t *testing.T) {
	for s := StatusOK; s <= StatusUncertain; s++ {
		if got := StatusOf(s.Err()); got != s {
			t.Errorf("StatusOf(%v.Err()) = %v", s, got)
		}
	}
	if StatusOf(db.ErrNotFound) != StatusNotFound ||
		StatusOf(db.ErrDuplicate) != StatusDuplicate ||
		StatusOf(db.ErrConflict) != StatusConflict ||
		StatusOf(nil) != StatusOK {
		t.Error("engine error mapping broken")
	}
	if StatusOf(errors.New("anything else")) != StatusErr {
		t.Error("unknown errors must map to StatusErr")
	}
	if !errors.Is(StatusNotFound.Err(), db.ErrNotFound) {
		t.Error("StatusNotFound must map back to db.ErrNotFound")
	}
}

func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xAB}, 100000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	var scratch []byte
	for i, want := range payloads {
		got, err := ReadFrame(r, scratch)
		scratch = got
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(r, scratch); err != io.EOF {
		t.Fatalf("EOF expected, got %v", err)
	}

	// Oversized length prefix must be rejected before any allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := ReadFrame(bytes.NewReader(huge), nil); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized frame: got %v", err)
	}
	// Truncated payload must fail loudly, not return short.
	var tr bytes.Buffer
	_ = WriteFrame(&tr, []byte{1, 2, 3, 4})
	if _, err := ReadFrame(bytes.NewReader(tr.Bytes()[:3]), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: got %v", err)
	}
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized write: got %v", err)
	}
}

func TestConnPipelining(t *testing.T) {
	// A client Conn and server Conn over an in-memory duplex pipe.
	cr, sw := io.Pipe()
	sr, cw := io.Pipe()
	client := NewConn(struct {
		io.Reader
		io.Writer
	}{cr, cw})
	server := NewConn(struct {
		io.Reader
		io.Writer
	}{sr, sw})

	const n = 100
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			req, err := server.ReadRequest()
			if err != nil {
				done <- err
				return
			}
			resp := Response{Kind: RespRow, Status: StatusOK, Row: []uint64{req.Key * 2}}
			if err := server.WriteResponse(&resp); err != nil {
				done <- err
				return
			}
		}
		done <- server.Flush()
	}()

	for i := 0; i < n; i++ {
		if err := client.WriteRequest(&Request{Op: OpGet, Table: 0, Key: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		resp, err := client.ReadResponse()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.Status != StatusOK || len(resp.Row) != 1 || resp.Row[0] != uint64(i*2) {
			t.Fatalf("response %d: %+v", i, resp)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
