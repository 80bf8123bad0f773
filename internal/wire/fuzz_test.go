package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// seedPayloads returns one valid encoding of every frame shape, used both
// as the in-code fuzz seeds and by TestSeedCorpus to keep the checked-in
// corpus honest.
func seedPayloads(t interface{ Fatal(...any) }) [][]byte {
	reqs := []Request{
		{Op: OpGet, Table: 0, Key: 1},
		{Op: OpPut, Table: 2, Key: 3, Vals: []uint64{4, 5, 6}},
		{Op: OpInsert, Table: 0, Key: 7, Vals: []uint64{}},
		{Op: OpDelete, Table: 1, Key: 8},
		{Op: OpStats},
		{Op: OpTxn, Ops: []Request{
			{Op: OpGet, Table: 0, Key: 1},
			{Op: OpPut, Table: 0, Key: 2, Vals: []uint64{9}},
		}},
		{Op: OpGetAt, Table: 1, Key: 9, MinTS: 1 << 40},
		{Op: OpPut, Table: 2, Key: 3, Vals: []uint64{4, 5, 6}, Trace: 0xdeadbeef},
		{Op: OpGet, Table: 0, Key: 1, Trace: 1},
		{Op: OpTxn, Trace: 1 << 60, Ops: []Request{
			{Op: OpGet, Table: 0, Key: 1},
			{Op: OpPut, Table: 0, Key: 2, Vals: []uint64{9}},
		}},
	}
	resps := []Response{
		{Kind: RespEmpty, Status: StatusOK},
		{Kind: RespEmpty, Status: StatusBusy},
		{Kind: RespEmpty, Status: StatusOK, TS: 1 << 50},
		{Kind: RespEmpty, Status: StatusNotYet, TS: 77},
		{Kind: RespEmpty, Status: StatusNotLeader, TS: 0, Redirect: "127.0.0.1:7001"},
		{Kind: RespEmpty, Status: StatusNotLeader},
		{Kind: RespEmpty, Status: StatusUncertain},
		{Kind: RespRow, Status: StatusOK, Row: []uint64{1, 2}},
		{Kind: RespRow, Status: StatusOK, Row: []uint64{}},
		{Kind: RespBatch, Status: StatusOK, Batch: []Response{
			{Kind: RespRow, Status: StatusOK, Row: []uint64{3}},
			{Kind: RespEmpty, Status: StatusNotFound},
		}},
		{Kind: RespStats, Status: StatusOK, Stats: NewStats("OCC_ORDO", []Stat{
			{"ordod_commits_total", 10}, {"ordod_aborts_total", 1},
			{`ordod_ops_total{op="get"}`, 20}, {"ordod_conns_active", 0},
			{"ordod_clock_uncertain_total", 1}, {"ordod_repl_role", 1},
			{`ordod_shard_commit_ts{shard="0"}`, 1<<63 + 5},
		})},
		{Kind: RespStats, Status: StatusOK, Stats: NewStats("OCC", nil)},
	}
	var out [][]byte
	for i := range reqs {
		p, err := AppendRequest(nil, &reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	for i := range resps {
		p, err := AppendResponse(nil, &resps[i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// FuzzDecodeFrame feeds arbitrary bytes through both payload decoders. The
// invariants: decoding never panics or over-allocates (the codec's length
// validation), and anything that decodes successfully re-encodes to a
// payload that decodes to the same value (round-trip stability).
func FuzzDecodeFrame(f *testing.F) {
	for _, p := range seedPayloads(f) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The arena decode path must be observationally identical to the
		// allocating one: same error outcome, same decoded value — including
		// across a Reset-and-reuse cycle, which is how the server uses it.
		var arena Arena
		for pass := 0; pass < 2; pass++ {
			areq, aerr := DecodeRequestArena(data, &arena)
			req, err := DecodeRequest(data)
			if (err == nil) != (aerr == nil) {
				t.Fatalf("pass %d: arena decode error mismatch: %v vs %v", pass, aerr, err)
			}
			if err == nil && !reflect.DeepEqual(normalizeReq(req), normalizeReq(areq)) {
				t.Fatalf("pass %d: arena decode mismatch:\n plain %+v\n arena %+v", pass, req, areq)
			}
			arena.Reset()
		}
		if req, err := DecodeRequest(data); err == nil {
			enc, err := AppendRequest(nil, &req)
			if err != nil {
				t.Fatalf("decoded request %+v does not re-encode: %v", req, err)
			}
			again, err := DecodeRequest(enc)
			if err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
			if !reflect.DeepEqual(normalizeReq(req), normalizeReq(again)) {
				t.Fatalf("request round-trip unstable:\n first %+v\n again %+v", req, again)
			}
		}
		if resp, err := DecodeResponse(data); err == nil {
			enc, err := AppendResponse(nil, &resp)
			if err != nil {
				t.Fatalf("decoded response %+v does not re-encode: %v", resp, err)
			}
			again, err := DecodeResponse(enc)
			if err != nil {
				t.Fatalf("re-encoded response does not decode: %v", err)
			}
			if !reflect.DeepEqual(normalizeResp(resp), normalizeResp(again)) {
				t.Fatalf("response round-trip unstable:\n first %+v\n again %+v", resp, again)
			}
		}
	})
}

// seedReplPayloads returns one valid encoding of every replication frame
// shape, mirroring seedPayloads for the repl codec.
func seedReplPayloads(t interface{ Fatal(...any) }) [][]byte {
	msgs := []ReplMsg{
		{Kind: ReplSubscribe},
		{Kind: ReplSubscribe, Inc: 3, Seq: 127},
		{Kind: ReplAck, Inc: 4, Seq: 1 << 20},
		{Kind: ReplWatermark, Inc: 4, Seq: 500, HorizonTS: 1 << 44, BoundaryTicks: 300},
		{Kind: ReplBatch, Inc: 2, Seq: 10, Recs: []ReplRecord{
			{Seq: 9, TS: 1000, H: 1, HSeq: 3, Data: []byte("redo")},
			{Seq: 10, TS: 1001, H: 2, HSeq: 1, Data: []byte{}},
		}},
		{Kind: ReplBatch},
		{Kind: ReplSubscribe, Inc: 3, Seq: 127, Epoch: 2},
		{Kind: ReplBatch, Inc: 5, Seq: 11, Epoch: 2, Recs: []ReplRecord{
			{Seq: 11, TS: 1002, H: 1, HSeq: 4, Data: []byte("redo2")},
		}},
		{Kind: ReplBatch, Inc: 6, Seq: 12, Epoch: 2, Recs: []ReplRecord{
			{Seq: 12, TS: 1003, H: 1, HSeq: 5, Trace: 0xabcdef0123, Data: []byte("redo3")},
		}},
		{Kind: ReplStatus, Inc: 6, Seq: 900, Epoch: 3, Role: 1,
			PrevInc: 4, PrevSeq: 880, Addr: "127.0.0.1:7101"},
		{Kind: ReplReject, Epoch: 3, Role: 2, Addr: "127.0.0.1:7102"},
		{Kind: ReplReject},
	}
	var out [][]byte
	for i := range msgs {
		p, err := AppendReplMsg(nil, &msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// normalizeReplMsg maps nil and empty slices to a canonical form: the wire
// cannot distinguish a nil record list or data payload from an empty one.
func normalizeReplMsg(m ReplMsg) ReplMsg {
	if len(m.Recs) == 0 {
		m.Recs = nil
	} else {
		recs := make([]ReplRecord, len(m.Recs))
		copy(recs, m.Recs)
		for i := range recs {
			if len(recs[i].Data) == 0 {
				recs[i].Data = nil
			}
		}
		m.Recs = recs
	}
	return m
}

// FuzzDecodeRepl is FuzzDecodeFrame for the replication codec: decoding
// arbitrary bytes never panics, and anything that decodes re-encodes to a
// payload that decodes to the same value.
func FuzzDecodeRepl(f *testing.F) {
	for _, p := range seedReplPayloads(f) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeReplMsg(data)
		if err != nil {
			return
		}
		enc, err := AppendReplMsg(nil, &m)
		if err != nil {
			t.Fatalf("decoded repl msg %+v does not re-encode: %v", m, err)
		}
		again, err := DecodeReplMsg(enc)
		if err != nil {
			t.Fatalf("re-encoded repl msg does not decode: %v", err)
		}
		if !reflect.DeepEqual(normalizeReplMsg(m), normalizeReplMsg(again)) {
			t.Fatalf("repl round-trip unstable:\n first %+v\n again %+v", m, again)
		}
	})
}

// TestSeedCorpus keeps the checked-in seed corpora under testdata/fuzz in
// sync with the codecs: every seed payload must appear in some corpus file,
// so `go test -fuzz` starts from valid frames of every shape even before
// its first mutation.
func TestSeedCorpus(t *testing.T) {
	check := func(dir string, seeds [][]byte) {
		files, err := corpusEntries(dir)
		if err != nil {
			t.Fatalf("reading seed corpus: %v", err)
		}
		for i, p := range seeds {
			found := false
			for _, c := range files {
				if bytes.Equal(c, p) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: seed payload %d (%x) missing from checked-in corpus", dir, i, p)
			}
		}
	}
	check("testdata/fuzz/FuzzDecodeFrame", seedPayloads(t))
	check("testdata/fuzz/FuzzDecodeRepl", seedReplPayloads(t))
}
