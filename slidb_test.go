package slidb_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"slidb"
)

// TestPublicAPIEndToEnd exercises the public API exactly as the README's
// quickstart does: open, create schema, insert, transfer, read back, and
// inspect statistics — once with SLI off and once with it on.
func TestPublicAPIEndToEnd(t *testing.T) {
	for _, sli := range []bool{false, true} {
		t.Run(fmt.Sprintf("sli=%v", sli), func(t *testing.T) {
			db := slidb.Open(slidb.Config{Agents: 4, SLI: sli})
			defer db.Close()

			schema := slidb.MustSchema(
				slidb.Column{Name: "id", Type: slidb.TypeInt},
				slidb.Column{Name: "name", Type: slidb.TypeString},
				slidb.Column{Name: "balance", Type: slidb.TypeFloat},
			)
			if err := db.CreateTable("accounts", schema, []string{"id"}); err != nil {
				t.Fatal(err)
			}
			if err := db.CreateIndex("accounts_by_name", "accounts", []string{"name"}, false); err != nil {
				t.Fatal(err)
			}

			if err := db.Exec(func(tx *slidb.Tx) error {
				for i := 1; i <= 10; i++ {
					row := slidb.Row{slidb.Int(int64(i)), slidb.String(fmt.Sprintf("user-%d", i)), slidb.Float(100)}
					if err := tx.Insert("accounts", row); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			// Concurrent transfers.
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						from := int64(1 + (w+i)%10)
						to := int64(1 + (w+i+3)%10)
						if from == to {
							continue
						}
						err := db.Exec(func(tx *slidb.Tx) error {
							lo, hi := from, to
							if lo > hi {
								lo, hi = hi, lo
							}
							for _, id := range []int64{lo, hi} {
								delta := 5.0
								if id == from {
									delta = -5.0
								}
								if err := tx.Update("accounts", []slidb.Value{slidb.Int(id)}, func(r slidb.Row) (slidb.Row, error) {
									r[2] = slidb.Float(r[2].AsFloat() + delta)
									return r, nil
								}); err != nil {
									return err
								}
							}
							return nil
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()

			// Conservation + index lookups through the public API.
			if err := db.Exec(func(tx *slidb.Tx) error {
				total := 0.0
				if err := tx.ScanTable("accounts", func(r slidb.Row) bool {
					total += r[2].AsFloat()
					return true
				}); err != nil {
					return err
				}
				if total != 1000 {
					return fmt.Errorf("total balance %v, want 1000", total)
				}
				rows, err := tx.LookupIndex("accounts_by_name", slidb.String("user-3"))
				if err != nil {
					return err
				}
				if len(rows) != 1 || rows[0][0].AsInt() != 3 {
					return fmt.Errorf("index lookup returned %v", rows)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			// Error surface: duplicate key.
			err := db.Exec(func(tx *slidb.Tx) error {
				return tx.Insert("accounts", slidb.Row{slidb.Int(1), slidb.String("dup"), slidb.Float(0)})
			})
			if !errors.Is(err, slidb.ErrDuplicateKey) {
				t.Fatalf("err = %v, want ErrDuplicateKey", err)
			}

			// Application-controlled abort.
			err = db.Exec(func(tx *slidb.Tx) error {
				if err := tx.Delete("accounts", slidb.Int(5)); err != nil {
					return err
				}
				return slidb.Abort
			})
			if !errors.Is(err, slidb.Abort) {
				t.Fatalf("err = %v, want Abort", err)
			}
			if err := db.Exec(func(tx *slidb.Tx) error {
				if _, found, err := tx.Get("accounts", slidb.Int(5)); err != nil || !found {
					return fmt.Errorf("aborted delete leaked (found=%v err=%v)", found, err)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			stats := db.LockStats()
			if stats.TotalAcquires() == 0 || stats.Transactions == 0 {
				t.Fatal("lock statistics empty")
			}
			if sli != db.SLIEnabled() {
				t.Fatal("SLIEnabled does not match configuration")
			}
		})
	}
}

// TestLockHierarchyLevelsExported makes sure the re-exported hierarchy
// levels are usable in Config.
func TestLockHierarchyLevelsExported(t *testing.T) {
	db := slidb.Open(slidb.Config{SLI: true, SLIMinLevel: slidb.LevelTable, Agents: 1})
	defer db.Close()
	if !db.SLIEnabled() {
		t.Fatal("SLI should be enabled")
	}
	_ = []slidb.Type{slidb.TypeInt, slidb.TypeFloat, slidb.TypeString}
	_ = []any{slidb.LevelDatabase, slidb.LevelPage, slidb.LevelRecord}
	if errors.Is(slidb.ErrNotFound, slidb.ErrDeadlock) {
		t.Fatal("sentinel errors must be distinct")
	}
}

// TestDeadlockStormResolves runs a deadlock storm through the engine: eight
// clients move one unit at a time between two of four accounts, updating
// them in random order, so transactions routinely meet the other way round.
// Every cycle must be broken by deadlock detection and the victim retried
// or, once its retries are exhausted, reported as ErrDeadlock; no victim's
// write may survive, so every balance ends exactly where the committed
// transfers put it.
func TestDeadlockStormResolves(t *testing.T) {
	const accounts, clients, initial = 4, 8, 1000
	xcts := 300
	if testing.Short() {
		xcts = 60
	}
	db := slidb.Open(slidb.Config{Agents: 8})
	defer db.Close()
	schema := slidb.MustSchema(
		slidb.Column{Name: "id", Type: slidb.TypeInt},
		slidb.Column{Name: "balance", Type: slidb.TypeInt},
	)
	if err := db.CreateTable("accounts", schema, []string{"id"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(func(tx *slidb.Tx) error {
		for id := int64(0); id < accounts; id++ {
			if err := tx.Insert("accounts", slidb.Row{slidb.Int(id), slidb.Int(initial)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var (
		mu                 sync.Mutex
		want               [accounts]int64
		commits, exhausted int
		wg                 sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(c) + 1))
			var delta [accounts]int64
			ok, gaveUp := 0, 0
			for i := 0; i < xcts; i++ {
				from := r.Int63n(accounts)
				to := (from + 1 + r.Int63n(accounts-1)) % accounts
				order := [][2]int64{{from, -1}, {to, +1}}
				if r.Intn(2) == 0 {
					order[0], order[1] = order[1], order[0]
				}
				err := db.Exec(func(tx *slidb.Tx) error {
					for _, u := range order {
						if err := tx.Update("accounts", []slidb.Value{slidb.Int(u[0])}, func(row slidb.Row) (slidb.Row, error) {
							row[1] = slidb.Int(row[1].AsInt() + u[1])
							return row, nil
						}); err != nil {
							return err
						}
					}
					return nil
				})
				switch {
				case err == nil:
					ok++
					delta[from]--
					delta[to]++
				case errors.Is(err, slidb.ErrDeadlock):
					gaveUp++
				default:
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
			mu.Lock()
			commits, exhausted = commits+ok, exhausted+gaveUp
			for id, d := range delta {
				want[id] += d
			}
			mu.Unlock()
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("the clients did not finish within 30 s")
	}
	if t.Failed() {
		return
	}

	if err := db.Exec(func(tx *slidb.Tx) error {
		for id := int64(0); id < accounts; id++ {
			row, found, err := tx.Get("accounts", slidb.Int(id))
			if err != nil || !found {
				return fmt.Errorf("account %d: found=%v err=%v", id, found, err)
			}
			if got := row[1].AsInt(); got != initial+want[id] {
				t.Errorf("account %d: balance %d, want %d", id, got, initial+want[id])
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	deadlocks := db.LockStats().Deadlocks
	if deadlocks == 0 {
		t.Error("no deadlock was detected: the storm did not storm")
	}
	t.Logf("%d commits, %d gave up after their retries, %d deadlock victims", commits, exhausted, deadlocks)
}
