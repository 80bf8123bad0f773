package wire

import (
	"io"
	"testing"
)

// The allocation gates: the serving hot path — request/response encode,
// server-path decode, batched response framing — must not allocate per op
// in steady state, so the zero-alloc work cannot silently regress. They
// skip under -race, so CI runs them in a step without it (see the
// "Alloc gates" step in .github/workflows/ci.yml).

// benchRequest is a representative PUT: one 10-column row, the YCSB shape
// the loadgen drives.
func benchRequest() Request {
	return Request{Op: OpPut, Table: 0, Key: 123456, Vals: []uint64{
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
	}}
}

func benchResponse() Response {
	return Response{Kind: RespRow, Status: StatusOK, Row: []uint64{
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
	}}
}

func TestZeroAllocEncodeRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	req := benchRequest()
	var buf []byte
	allocs := testing.AllocsPerRun(1000, func() {
		p, err := AppendRequest(buf[:0], &req)
		if err != nil {
			t.Fatal(err)
		}
		buf = p
	})
	if allocs != 0 {
		t.Fatalf("request encode: %v allocs/op, want 0", allocs)
	}
}

func TestZeroAllocEncodeResponse(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	resp := benchResponse()
	var buf []byte
	allocs := testing.AllocsPerRun(1000, func() {
		p, err := AppendResponse(buf[:0], &resp)
		if err != nil {
			t.Fatal(err)
		}
		buf = p
	})
	if allocs != 0 {
		t.Fatalf("response encode: %v allocs/op, want 0", allocs)
	}
}

func TestZeroAllocDecodeRequestArena(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	req := benchRequest()
	payload, err := AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	var arena Arena
	allocs := testing.AllocsPerRun(1000, func() {
		arena.Reset()
		if _, err := DecodeRequestArena(payload, &arena); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("arena decode: %v allocs/op, want 0", allocs)
	}

	// The TXN shape carves both request and value blocks.
	txn := Request{Op: OpTxn, Ops: []Request{
		{Op: OpGet, Key: 1},
		benchRequest(),
		{Op: OpDelete, Key: 2},
	}}
	payload, err = AppendRequest(nil, &txn)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		arena.Reset()
		if _, err := DecodeRequestArena(payload, &arena); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("arena TXN decode: %v allocs/op, want 0", allocs)
	}
}

func TestZeroAllocBatchWriter(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	bw := NewBatchWriter(io.Discard)
	resp := benchResponse()
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 32; i++ {
			if err := bw.WriteResponse(&resp); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batch writer window: %v allocs, want 0", allocs)
	}
}
