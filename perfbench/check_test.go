package main

import (
	"encoding/json"
	"os"
	"testing"

	"ordo/internal/wire"
)

// Each correctness check must refuse a wrong answer and accept the right
// one.

func TestRowIntactRefusesTamperedRows(t *testing.T) {
	good := kvRow(7, 3)
	if err := checkRowIntact(7, good); err != nil {
		t.Fatalf("intact row refused: %v", err)
	}
	tampered := kvRow(7, 3)
	tampered[1] = 4 // version changed without the digest
	for name, row := range map[string][]uint64{
		"tampered version": tampered,
		"other key's row":  kvRow(8, 3),
		"short row":        good[:2],
	} {
		if checkRowIntact(7, row) == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestOwnedReadRefusesStaleVersion(t *testing.T) {
	if err := checkOwnedRead(4, kvRow(4, 5), 5, 6); err != nil {
		t.Fatalf("fresh read refused: %v", err)
	}
	if checkOwnedRead(4, kvRow(4, 4), 5, 6) == nil {
		t.Error("read older than the acknowledged version accepted")
	}
	if checkOwnedRead(4, kvRow(4, 7), 5, 6) == nil {
		t.Error("read of a version never written accepted")
	}
}

func TestSweepRefusesLostUpdate(t *testing.T) {
	if err := checkSwept(2, kvRow(2, 9), 9, 9); err != nil {
		t.Fatalf("matching row refused: %v", err)
	}
	if checkSwept(2, kvRow(2, 8), 9, 9) == nil {
		t.Error("lost acknowledged update accepted")
	}
	if err := checkSwept(2, kvRow(2, 10), 9, 10); err != nil {
		t.Errorf("unanswered write's version refused: %v", err)
	}
}

func TestAuditRefusesOffByOne(t *testing.T) {
	keys := []uint64{1, 2, 3, 4}
	rows := [][]uint64{{1, 10}, {2, 20}, {3, 30}, {4, 40}}
	if err := checkAudit(keys, rows, 100); err != nil {
		t.Fatalf("conserved group refused: %v", err)
	}
	rows[2] = []uint64{3, 31}
	if checkAudit(keys, rows, 100) == nil {
		t.Error("audit off by one accepted")
	}
	rows[2] = []uint64{9, 30}
	if checkAudit(keys, rows, 100) == nil {
		t.Error("audit with another account's row accepted")
	}
	if checkAudit(keys, rows[:3], 100) == nil {
		t.Error("audit missing a row accepted")
	}
}

func TestBalanceRefusesCacheMismatch(t *testing.T) {
	if err := checkBalance(5, []uint64{5, 99}, 99); err != nil {
		t.Fatalf("matching balance refused: %v", err)
	}
	if checkBalance(5, []uint64{5, 98}, 99) == nil {
		t.Error("balance differing from the owner's cache accepted")
	}
}

func TestYCSBSumRefusesLostUpdate(t *testing.T) {
	if err := checkYCSBSum(1000, 25, 1025); err != nil {
		t.Fatalf("exact sum refused: %v", err)
	}
	if checkYCSBSum(1000, 25, 1024) == nil {
		t.Error("lost read-modify-write accepted")
	}
}

func TestNoFailoverRefusesPromotion(t *testing.T) {
	if err := checkNoFailover("n", 0, 0); err != nil {
		t.Fatal(err)
	}
	if checkNoFailover("n", 1, 0) == nil || checkNoFailover("n", 0, 1) == nil {
		t.Error("leadership change accepted")
	}
}

// The connection models route replies into the checks.
func TestKVLoadFlagsStaleOwnedRead(t *testing.T) {
	l := newKVLoads(kvSpec{rows: 8, putFrac: 0.5, win: 4}, 1)[0]
	l.issued[1], l.acked[1] = 3, 3
	k := l.key(1)
	resp := wire.Response{Kind: wire.RespRow, Status: wire.StatusOK, Row: kvRow(k, 2)}
	if err := l.done(kvTag{key: k, floor: 3}, &wire.Request{Op: wire.OpGet, Key: k}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(l.o.violations) != 1 {
		t.Fatalf("stale read gave %d violations, want 1", len(l.o.violations))
	}
}

func TestTxnLoadFlagsUnbalancedAudit(t *testing.T) {
	l := newTxnLoads(1)[0]
	g := 0 // owned by connection 0
	batch := make([]wire.Response, groupSize)
	for i, k := range l.groups[g] {
		batch[i] = wire.Response{Kind: wire.RespRow, Status: wire.StatusOK, Row: []uint64{k, initialBalance}}
	}
	resp := wire.Response{Kind: wire.RespBatch, Status: wire.StatusOK, Batch: batch}
	if err := l.done(txnTag{group: g}, nil, &resp); err != nil || len(l.o.violations) != 0 {
		t.Fatalf("balanced audit: err=%v violations=%v", err, l.o.violations)
	}
	batch[3].Row = []uint64{l.groups[g][3], initialBalance + 1}
	if err := l.done(txnTag{group: g}, nil, &resp); err != nil || len(l.o.violations) != 1 {
		t.Fatalf("unbalanced audit: err=%v violations=%v", err, l.o.violations)
	}
}

func TestAccountGroupsSpanBothLanes(t *testing.T) {
	seen := map[uint64]bool{}
	for _, g := range accountGroups() {
		if len(g) != groupSize {
			t.Fatalf("group %v", g)
		}
		for _, k := range g {
			if seen[k] {
				t.Fatalf("key %d in two groups", k)
			}
			seen[k] = true
		}
	}
}

func TestHistQuantileOverWindow(t *testing.T) {
	before := parseProm(`h_bucket{le="1"} 10
h_bucket{le="+Inf"} 10
`)
	after := parseProm(`h_bucket{le="1"} 10
h_bucket{le="2"} 20
h_bucket{le="4"} 30
h_bucket{le="+Inf"} 30
`)
	// 20 new observations: 10 in (1,2], 10 in (2,4]; the median is 2.
	if got := histQuantile(before, after, "h", 0.5); got != 2 {
		t.Fatalf("p50 = %v, want 2", got)
	}
	if got := histQuantile(after, after, "h", 0.5); got != 0 {
		t.Fatalf("p50 of an empty window = %v, want 0", got)
	}
}

// BENCHMARK.json lists exactly the per-layer metrics the traced pass
// prints, with the same units.
func TestBenchmarkFileListsEveryLayerMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found")
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, m := range spec.PerLayer {
		listed[m.Name] = m.Unit
	}
	for name, unit := range layerUnits {
		if listed[name] != unit {
			t.Errorf("%s: BENCHMARK.json unit %q, printed unit %q", name, listed[name], unit)
		}
	}
	if len(listed) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(listed), len(layerUnits))
	}
}
