package main

import "fmt"

// The correctness checks compare what the program answered against the
// client's own model or a property of the method. Each is a pure function
// so check_test.go can feed it a wrong answer.

// kvCols is the row width of the kv workloads: (key, version, digest).
const kvCols = 3

// kvRow encodes version v of key k. The digest ties the two together, so
// a torn or misplaced row cannot pass as intact.
func kvRow(k, v uint64) []uint64 { return []uint64{k, v, kvDigest(k, v)} }

func kvDigest(k, v uint64) uint64 {
	x := k*0x9e3779b97f4a7c15 ^ v
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	return x ^ x>>29
}

// checkRowIntact verifies that row is some version of key k.
func checkRowIntact(k uint64, row []uint64) error {
	if len(row) != kvCols {
		return fmt.Errorf("key %d: row has %d columns, want %d", k, len(row), kvCols)
	}
	if row[0] != k {
		return fmt.Errorf("key %d: row belongs to key %d", k, row[0])
	}
	if row[2] != kvDigest(k, row[1]) {
		return fmt.Errorf("key %d: row (%d, %d, %#x) is not intact", k, row[0], row[1], row[2])
	}
	return nil
}

// checkOwnedRead verifies a read of a key the reading connection owns:
// it must not be older than the version acknowledged before the read was
// sent, nor newer than any version ever sent.
func checkOwnedRead(k uint64, row []uint64, ackedFloor, issued uint64) error {
	if err := checkRowIntact(k, row); err != nil {
		return err
	}
	if v := row[1]; v < ackedFloor || v > issued {
		return fmt.Errorf("key %d: read version %d, want %d..%d", k, v, ackedFloor, issued)
	}
	return nil
}

// checkSwept verifies a row read after the load against the model: the
// last acknowledged version, or, for a key whose last write got no
// definite answer, anything from it up to the last version sent.
func checkSwept(k uint64, row []uint64, acked, issued uint64) error {
	if err := checkRowIntact(k, row); err != nil {
		return err
	}
	if v := row[1]; v < acked || v > issued {
		return fmt.Errorf("key %d: swept version %d, model says %d..%d", k, v, acked, issued)
	}
	return nil
}

// checkAudit verifies a read of one whole account group: every row is the
// account it was asked for and the balances sum to the conserved total.
func checkAudit(keys []uint64, rows [][]uint64, total uint64) error {
	if len(rows) != len(keys) {
		return fmt.Errorf("audit returned %d rows for %d accounts", len(rows), len(keys))
	}
	var sum uint64
	for i, row := range rows {
		if len(row) != txnCols || row[0] != keys[i] {
			return fmt.Errorf("audit: account %d answered row %v", keys[i], row)
		}
		sum += row[1]
	}
	if sum != total {
		return fmt.Errorf("audit of accounts %v: total %d, want %d", keys, sum, total)
	}
	return nil
}

// checkBalance verifies one account against its owner's cache.
func checkBalance(k uint64, row []uint64, want uint64) error {
	if len(row) != txnCols || row[0] != k {
		return fmt.Errorf("account %d answered row %v", k, row)
	}
	if row[1] != want {
		return fmt.Errorf("account %d: balance %d, owner's cache says %d", k, row[1], want)
	}
	return nil
}

// checkYCSBSum verifies the engine run: every committed read-modify-write
// added one to vals[0] of its row, and nothing else changed that column.
func checkYCSBSum(initial, committedRMW, got uint64) error {
	if want := initial + committedRMW; got != want {
		return fmt.Errorf("sum of vals[0] is %d, want initial %d + %d committed read-modify-writes = %d",
			got, initial, committedRMW, want)
	}
	return nil
}

// checkNoFailover verifies that a replicated run saw no leadership change.
func checkNoFailover(node string, promotions, fencings uint64) error {
	if promotions != 0 || fencings != 0 {
		return fmt.Errorf("%s: promotions=%d fencings=%d, want 0 and 0", node, promotions, fencings)
	}
	return nil
}
