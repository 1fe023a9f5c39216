// Command persistence demonstrates slidb's durability subsystem: it opens a
// disk-backed engine with slidb.OpenAt, commits some transfers, simulates a
// crash by abandoning the engine without Close (in-flight and unflushed
// state is lost, exactly as in a process kill), reopens the same directory,
// and shows that recovery brought back every committed transaction and none
// of the aborted ones. Finally it checkpoints, which truncates the
// write-ahead log so the next open replays (almost) nothing.
//
// Run it twice to watch the second process recover the first one's data:
//
//	go run ./examples/persistence        # uses ./slidb-data by default
//	go run ./examples/persistence /tmp/mydata
package main

import (
	"errors"
	"fmt"
	"log"
	"os"

	"slidb"
)

func main() {
	dir := "slidb-data"
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}

	// --- first incarnation: create, write, "crash" -----------------------
	db, err := slidb.OpenAt(dir, slidb.Config{Agents: 4})
	if errors.Is(err, slidb.ErrLogFormat) {
		log.Fatalf("%v\n%s was written by an older slidb build; delete it (or point this example at a fresh directory) and re-run", err, dir)
	}
	if err != nil {
		log.Fatal(err)
	}
	report("opened", db)

	schema := slidb.MustSchema(
		slidb.Column{Name: "id", Type: slidb.TypeInt},
		slidb.Column{Name: "balance", Type: slidb.TypeInt},
	)
	if len(db.Tables()) == 0 {
		if err := db.CreateTable("accounts", schema, []string{"id"}); err != nil {
			log.Fatal(err)
		}
		if err := db.Exec(func(tx *slidb.Tx) error {
			for id := int64(0); id < 4; id++ {
				if err := tx.Insert("accounts", slidb.Row{slidb.Int(id), slidb.Int(100)}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Println("created 4 accounts with balance 100")
	}

	// A committed transfer: durable the moment Exec returns nil.
	if err := db.Exec(func(tx *slidb.Tx) error {
		return move(tx, 0, 1, 25)
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("committed: move 25 from account 0 to account 1")

	// An aborted transfer: its writes happen, then the transaction bails.
	errBail := errors.New("changed my mind")
	if err := db.Exec(func(tx *slidb.Tx) error {
		if err := move(tx, 2, 3, 999); err != nil {
			return err
		}
		return errBail // everything this transaction did is rolled back
	}); !errors.Is(err, errBail) {
		log.Fatal(err)
	}
	fmt.Println("aborted:   move 999 from account 2 to account 3")

	printBalances(db)

	// --- the crash -------------------------------------------------------
	// No Close: the engine object is simply dropped, like a SIGKILL. The
	// write-ahead log segments in dir are all that survives.
	db = nil
	fmt.Println("\n*** crash (engine abandoned without Close) ***")

	// --- second incarnation: recover -------------------------------------
	db2, err := slidb.OpenAt(dir, slidb.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	report("recovered", db2)
	printBalances(db2)

	// Checkpoint: snapshot the state and truncate the log, so the next open
	// does not replay this history again.
	if err := db2.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("checkpointed: log truncated, next open starts from the snapshot")
}

// move transfers amount between two accounts.
func move(tx *slidb.Tx, from, to, amount int64) error {
	add := func(id, delta int64) error {
		return tx.Update("accounts", []slidb.Value{slidb.Int(id)}, func(r slidb.Row) (slidb.Row, error) {
			r[1] = slidb.Int(r[1].AsInt() + delta)
			return r, nil
		})
	}
	if err := add(from, -amount); err != nil {
		return err
	}
	return add(to, amount)
}

func report(what string, db *slidb.Engine) {
	st := db.RecoveryStats()
	fmt.Printf("%s %s: checkpoint LSN %d, %d log records scanned, %d winners redone, %d losers discarded\n",
		what, db.DataDir(), st.CheckpointLSN, st.LogRecordsScanned, st.Winners, st.Losers)
}

func printBalances(db *slidb.Engine) {
	err := db.Exec(func(tx *slidb.Tx) error {
		return tx.ScanTable("accounts", func(r slidb.Row) bool {
			fmt.Printf("  account %d: balance %d\n", r[0].AsInt(), r[1].AsInt())
			return true
		})
	})
	if err != nil {
		log.Fatal(err)
	}
}
