package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"ordo/internal/wire"
)

// TestOversizeFrameDesyncFatal models the hostile client from the frame
// codec's threat model: an oversize length prefix is consumed but its
// payload is not, so the bytes that follow — here a perfectly well-formed
// PUT frame — sit at a desynchronized stream offset. If the server resumed
// reading it would execute that PUT as if the client had sent it. The
// connection must instead be evicted: the op before the bad header answers
// normally, the fault answers one ERR, the connection closes, and the PUT
// never reaches the engine.
func TestOversizeFrameDesyncFatal(t *testing.T) {
	defer requireNoGoroutineLeak(t)()
	f := &fakeDB{}
	srv, ln, serveDone := startRawServer(t, Config{DB: f})

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	var blob bytes.Buffer
	get, err := wire.AppendRequest(nil, &wire.Request{Op: wire.OpGet, Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(&blob, get); err != nil {
		t.Fatal(err)
	}
	// The oversize header: length > MaxFrame, no payload behind it.
	var hdr [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(hdr[:], uint64(wire.MaxFrame)+1)
	blob.Write(hdr[:n])
	// The smuggled op: a valid PUT frame at the desynchronized offset.
	put, err := wire.AppendRequest(nil, &wire.Request{Op: wire.OpPut, Key: 99, Vals: []uint64{7}})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(&blob, put); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(blob.Bytes()); err != nil {
		t.Fatal(err)
	}

	c := wire.NewConn(nc)
	r, err := c.ReadResponse()
	if err != nil {
		t.Fatalf("valid op before the bad header: %v", err)
	}
	if r.Status != wire.StatusOK {
		t.Fatalf("valid op answered %v, want OK", r.Status)
	}
	r, err = c.ReadResponse()
	if err != nil {
		t.Fatalf("ERR response must be flushed before close, got %v", err)
	}
	if r.Status != wire.StatusErr {
		t.Fatalf("oversize frame answered %v, want ERR", r.Status)
	}
	if _, err := c.ReadResponse(); !errors.Is(err, io.EOF) {
		t.Fatalf("connection must close after oversize frame, got %v", err)
	}

	snap := counters(srv)
	if snap["ordod_protocol_errors_total"] != 1 {
		t.Fatalf("protoErrs=%d, want 1", snap["ordod_protocol_errors_total"])
	}
	if snap["ordod_evictions_total"] != 1 {
		t.Fatalf("evictions=%d, want 1", snap["ordod_evictions_total"])
	}
	if snap[`ordod_ops_total{op="put"}`] != 0 {
		t.Fatalf("smuggled PUT executed: puts=%d, want 0", snap[`ordod_ops_total{op="put"}`])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestAppendRedoWideLengths crosses the one-byte/two-byte length-varint
// boundary the in-place backfill must handle: a 200-column row's encoding
// is longer than 127 bytes, so its prefix occupies two bytes and the
// payload shifts by three.
func TestAppendRedoWideLengths(t *testing.T) {
	wide := make([]uint64, 200)
	for i := range wide {
		wide[i] = uint64(i * 3)
	}
	ops := []*wire.Request{
		{Op: wire.OpPut, Table: 1, Key: 42, Vals: wide},
		{Op: wire.OpDelete, Table: 0, Key: 7},
		{Op: wire.OpInsert, Table: 2, Key: 9, Vals: []uint64{1}},
	}
	redo, err := AppendRedo(nil, ops)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRedo(redo)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if !reflect.DeepEqual(got[i].Vals, ops[i].Vals) || got[i].Op != ops[i].Op ||
			got[i].Key != ops[i].Key || got[i].Table != ops[i].Table {
			t.Fatalf("op %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], *ops[i])
		}
	}
}

// TestZeroAllocAppendRedo gates the group-commit encode path: with a
// caller-owned buffer, flattening a run's write-set must not allocate.
func TestZeroAllocAppendRedo(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ops := []*wire.Request{
		{Op: wire.OpPut, Table: 0, Key: 1, Vals: []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{Op: wire.OpInsert, Table: 1, Key: 2, Vals: []uint64{11, 12}},
		{Op: wire.OpDelete, Table: 0, Key: 3},
	}
	var buf []byte
	allocs := testing.AllocsPerRun(1000, func() {
		p, err := AppendRedo(buf[:0], ops)
		if err != nil {
			t.Fatal(err)
		}
		buf = p
	})
	if allocs != 0 {
		t.Fatalf("redo encode: %v allocs/op, want 0", allocs)
	}
}
