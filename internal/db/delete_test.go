package db

import (
	"errors"
	"sync"
	"testing"
)

func TestDeleteBasic(t *testing.T) {
	for name, d := range engines(t) {
		t.Run(name, func(t *testing.T) {
			seed(t, d, 0, map[uint64][]uint64{1: {10, 0}})
			s := d.NewSession()
			retry(t, s, func(tx Tx) error { return tx.Delete(0, 1) })
			err := s.Run(func(tx Tx) error {
				_, err := tx.Read(0, 1)
				return err
			})
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("read after delete: err = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestDeleteMissingKey(t *testing.T) {
	for name, d := range engines(t) {
		t.Run(name, func(t *testing.T) {
			s := d.NewSession()
			err := s.Run(func(tx Tx) error { return tx.Delete(0, 777) })
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("delete missing: err = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestDeleteThenReinsert(t *testing.T) {
	for name, d := range engines(t) {
		t.Run(name, func(t *testing.T) {
			seed(t, d, 0, map[uint64][]uint64{2: {20, 0}})
			s := d.NewSession()
			retry(t, s, func(tx Tx) error { return tx.Delete(0, 2) })
			retry(t, s, func(tx Tx) error { return tx.Insert(0, 2, []uint64{21, 0}) })
			retry(t, s, func(tx Tx) error {
				v, err := tx.Read(0, 2)
				if err != nil {
					return err
				}
				if v[0] != 21 {
					t.Errorf("reincarnated row = %d, want 21", v[0])
				}
				return nil
			})
		})
	}
}

func TestReadOwnDelete(t *testing.T) {
	for name, d := range engines(t) {
		t.Run(name, func(t *testing.T) {
			seed(t, d, 0, map[uint64][]uint64{3: {30, 0}})
			s := d.NewSession()
			retry(t, s, func(tx Tx) error {
				if err := tx.Delete(0, 3); err != nil {
					return err
				}
				if _, err := tx.Read(0, 3); !errors.Is(err, ErrNotFound) {
					t.Errorf("read-own-delete: err = %v, want ErrNotFound", err)
				}
				if err := tx.Update(0, 3, []uint64{1, 1}); !errors.Is(err, ErrNotFound) {
					t.Errorf("update-own-delete: err = %v, want ErrNotFound", err)
				}
				if err := tx.Delete(0, 3); !errors.Is(err, ErrNotFound) {
					t.Errorf("double delete: err = %v, want ErrNotFound", err)
				}
				return nil
			})
		})
	}
}

func TestDeleteOwnPendingInsertCancels(t *testing.T) {
	for name, d := range engines(t) {
		t.Run(name, func(t *testing.T) {
			s := d.NewSession()
			retry(t, s, func(tx Tx) error {
				if err := tx.Insert(0, 4, []uint64{40, 0}); err != nil {
					return err
				}
				return tx.Delete(0, 4)
			})
			err := s.Run(func(tx Tx) error {
				_, err := tx.Read(0, 4)
				return err
			})
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("insert+delete in one txn left a row: err = %v", err)
			}
		})
	}
}

func TestUpdateThenDeleteInOneTxn(t *testing.T) {
	for name, d := range engines(t) {
		t.Run(name, func(t *testing.T) {
			seed(t, d, 0, map[uint64][]uint64{5: {50, 0}})
			s := d.NewSession()
			retry(t, s, func(tx Tx) error {
				if err := tx.Update(0, 5, []uint64{51, 0}); err != nil {
					return err
				}
				return tx.Delete(0, 5)
			})
			err := s.Run(func(tx Tx) error {
				_, err := tx.Read(0, 5)
				return err
			})
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("update+delete left a row: err = %v", err)
			}
		})
	}
}

func TestAbortedDeleteKeepsRow(t *testing.T) {
	boom := errors.New("boom")
	for name, d := range engines(t) {
		t.Run(name, func(t *testing.T) {
			seed(t, d, 0, map[uint64][]uint64{6: {60, 0}})
			s := d.NewSession()
			err := s.Run(func(tx Tx) error {
				if err := tx.Delete(0, 6); err != nil {
					return err
				}
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v", err)
			}
			retry(t, s, func(tx Tx) error {
				v, err := tx.Read(0, 6)
				if err != nil {
					return err
				}
				if v[0] != 60 {
					t.Errorf("row mutated by aborted delete: %d", v[0])
				}
				return nil
			})
		})
	}
}

func TestConcurrentDeleteRace(t *testing.T) {
	// Two sessions race to delete the same key; exactly one must win and
	// the other must see ErrNotFound or ErrConflict, never both deleting.
	for name, d := range engines(t) {
		t.Run(name, func(t *testing.T) {
			seed(t, d, 0, map[uint64][]uint64{9: {90, 0}})
			var wins int64
			var mu sync.Mutex
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				s := d.NewSession()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						err := s.Run(func(tx Tx) error { return tx.Delete(0, 9) })
						switch {
						case err == nil:
							mu.Lock()
							wins++
							mu.Unlock()
							return
						case errors.Is(err, ErrNotFound):
							return
						case errors.Is(err, ErrConflict):
							continue
						default:
							t.Errorf("unexpected: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if wins != 1 {
				t.Fatalf("%d sessions deleted the row, want exactly 1", wins)
			}
		})
	}
}

func TestDeleteInvalidatesConcurrentReaders(t *testing.T) {
	// A transaction that read the row before a concurrent delete commits
	// must fail validation (single-version engines bump the version).
	for name, d := range engines(t) {
		if name == "HEKATON" || name == "HEKATON_ORDO" {
			continue // MVCC readers legitimately keep their snapshot
		}
		if name == "TICTOC" {
			// TicToc legitimately commits: its data-driven timestamps
			// serialize the reader BEFORE the delete (time traveling).
			continue
		}
		t.Run(name, func(t *testing.T) {
			seed(t, d, 0, map[uint64][]uint64{11: {1, 0}})
			s1 := d.NewSession()
			s2 := d.NewSession()
			err := s1.Run(func(tx Tx) error {
				if _, err := tx.Read(0, 11); err != nil {
					return err
				}
				// Concurrent delete commits inside our window.
				if err := s2.Run(func(tx2 Tx) error { return tx2.Delete(0, 11) }); err != nil {
					return err
				}
				// Force a write so validation runs with a write set too.
				return tx.Insert(1, 99, []uint64{1})
			})
			if !errors.Is(err, ErrConflict) {
				t.Fatalf("reader across a delete committed: err = %v, want ErrConflict", err)
			}
		})
	}
}

// TestDeleteRevalidatedAtCommit interleaves two deletes of one row by
// hand on the single-version engines: session B looks the row up, then A
// deletes it and C re-inserts the key, then B commits. B's delete must
// conflict, and C's row must stay linked under the key.
func TestDeleteRevalidatedAtCommit(t *testing.T) {
	all := engines(t)
	for _, name := range []string{OCC.String(), OCCOrdo.String(), Silo.String(), TicToc.String()} {
		d := all[name]
		t.Run(name, func(t *testing.T) {
			seed(t, d, 0, map[uint64][]uint64{1: {10, 0}})
			a, b, c := d.NewSession(), d.NewSession(), d.NewSession()
			err := b.Run(func(tx Tx) error {
				if err := tx.Delete(0, 1); err != nil {
					return err
				}
				retry(t, a, func(tx Tx) error { return tx.Delete(0, 1) })
				retry(t, c, func(tx Tx) error { return tx.Insert(0, 1, []uint64{20, 0}) })
				return nil
			})
			if !errors.Is(err, ErrConflict) {
				t.Fatalf("second delete of an already deleted row: err = %v, want ErrConflict", err)
			}
			var got []uint64
			retry(t, a, func(tx Tx) error {
				var err error
				got, err = tx.Read(0, 1)
				return err
			})
			if got[0] != 20 {
				t.Fatalf("key 1 reads %v, want the re-inserted row [20 0]", got)
			}
		})
	}
}
