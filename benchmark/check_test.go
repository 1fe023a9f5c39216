package main

import (
	"strings"
	"testing"

	"slidb"
)

// drive loads w at toy scale into a volatile engine and runs n generated
// transactions through it the way a client would, returning the tally.
func drive(t *testing.T, w *workload, n int) (*slidb.Engine, []*tally) {
	t.Helper()
	db := slidb.Open(engineConfig(false))
	t.Cleanup(func() { db.Close() })
	if err := w.load(db, toyScale); err != nil {
		t.Fatal(err)
	}
	g, ta := newGen(1, 0, toyScale), &tally{}
	var o op
	for i := 0; i < n; i++ {
		w.next(g, &o)
		ta.issued++
		w.count(ta, &o, false)
		if err := db.Exec(func(tx *slidb.Tx) error { return w.body(txn{tx: tx}, &o) }); err != nil {
			t.Fatalf("%s transaction %d: %v", w.name, i, err)
		}
		ta.acked++
		w.count(ta, &o, true)
	}
	clients := []*tally{ta}
	if bad, lost := w.check(db, toyScale, clients); len(bad) != 0 || lost != 0 {
		t.Fatalf("%s: clean run fails its own check: %v (lost %d)", w.name, bad, lost)
	}
	return db, clients
}

func mustExec(t *testing.T, db *slidb.Engine, fn func(tx *slidb.Tx) error) {
	t.Helper()
	if err := db.Exec(fn); err != nil {
		t.Fatal(err)
	}
}

func wantViolation(t *testing.T, bad []string, substr string) {
	t.Helper()
	for _, b := range bad {
		if strings.Contains(b, substr) {
			return
		}
	}
	t.Errorf("no violation mentioning %q in %v", substr, bad)
}

func TestTPCBCheckerCatchesLostRowAndBrokenSum(t *testing.T) {
	db, clients := drive(t, tpcbRamlog, 300)

	// An acknowledged transaction whose history row is gone.
	mustExec(t, db, func(tx *slidb.Tx) error { return tx.Delete(tblHistory, slidb.Int(0), slidb.Int(17)) })
	bad, lost := checkTPCB(db, toyScale, clients)
	if lost != 1 {
		t.Errorf("lost acknowledged = %d, want 1", lost)
	}
	wantViolation(t, bad, "no history row")
	wantViolation(t, bad, "conservation broken")

	// A fresh database with one cent added to one account.
	db, clients = drive(t, tpcbRamlog, 300)
	mustExec(t, db, func(tx *slidb.Tx) error { return tx.Update(tblAccounts, []slidb.Value{slidb.Int(5)}, addTo(2, 1)) })
	bad, lost = checkTPCB(db, toyScale, clients)
	if lost != 0 {
		t.Errorf("lost acknowledged = %d, want 0", lost)
	}
	wantViolation(t, bad, "conservation broken")

	// A history row nobody issued.
	db, clients = drive(t, tpcbRamlog, 50)
	mustExec(t, db, func(tx *slidb.Tx) error {
		return tx.Insert(tblHistory, slidb.Row{slidb.Int(0), slidb.Int(9999), slidb.Int(1), slidb.Int(1), slidb.Int(1), slidb.Int(0), slidb.String("")})
	})
	bad, _ = checkTPCB(db, toyScale, clients)
	wantViolation(t, bad, "never issued")
}

func TestTPCCCheckerCatchesSkippedOrderAndLostPayment(t *testing.T) {
	db, clients := drive(t, tpccMix, 400)
	mustExec(t, db, func(tx *slidb.Tx) error {
		return tx.Update(tblDistrict, []slidb.Value{slidb.Int(1), slidb.Int(1)}, addTo(4, 1))
	})
	bad, _ := checkTPCC(db, toyScale, clients)
	wantViolation(t, bad, "district (1,1)")

	db, clients = drive(t, tpccMix, 400)
	mustExec(t, db, func(tx *slidb.Tx) error { return tx.Update(tblWarehouse, []slidb.Value{slidb.Int(1)}, addTo(1, -5)) })
	bad, _ = checkTPCC(db, toyScale, clients)
	wantViolation(t, bad, "payment conservation broken")
}

func TestTM1ReadsVerifyTheirRows(t *testing.T) {
	db, clients := drive(t, tm1Read, 500)
	// Corrupt one column of subscriber 7: reading it must now fail the check.
	mustExec(t, db, func(tx *slidb.Tx) error { return tx.Update(tblSubscriber, []slidb.Value{slidb.Int(7)}, addTo(20, 1)) })
	err := db.Exec(func(tx *slidb.Tx) error {
		return tm1Read.body(txn{tx: tx}, &op{kind: tm1GetSubscriber, a: 7})
	})
	if err != errCheck {
		t.Errorf("reading a corrupted subscriber returned %v, want errCheck", err)
	}
	mustExec(t, db, func(tx *slidb.Tx) error { return tx.Delete(tblAccessInfo, slidb.Int(3), slidb.Int(1)) })
	bad, _ := tm1Read.check(db, toyScale, clients)
	wantViolation(t, bad, tblAccessInfo)
}
