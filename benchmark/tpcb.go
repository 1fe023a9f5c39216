package main

import (
	"fmt"
	"strings"

	"slidb"
)

// tpcb_*: TPC-B's single transaction — adjust an account, its teller and its
// branch by the same delta and insert a history row. Balances are integer
// cents so conservation is exact. The history key is (client, seq), which is
// what lets the restart check name every acknowledged transaction.
const (
	tblBranches = "branches"
	tblTellers  = "tellers"
	tblAccounts = "accounts"
	tblHistory  = "history"
)

var (
	branchSchema = slidb.MustSchema(
		slidb.Column{Name: "b_id", Type: slidb.TypeInt},
		slidb.Column{Name: "b_balance", Type: slidb.TypeInt},
		slidb.Column{Name: "filler", Type: slidb.TypeString},
	)
	tellerSchema = slidb.MustSchema(
		slidb.Column{Name: "t_id", Type: slidb.TypeInt},
		slidb.Column{Name: "b_id", Type: slidb.TypeInt},
		slidb.Column{Name: "t_balance", Type: slidb.TypeInt},
		slidb.Column{Name: "filler", Type: slidb.TypeString},
	)
	accountSchema = slidb.MustSchema(
		slidb.Column{Name: "a_id", Type: slidb.TypeInt},
		slidb.Column{Name: "b_id", Type: slidb.TypeInt},
		slidb.Column{Name: "a_balance", Type: slidb.TypeInt},
		slidb.Column{Name: "filler", Type: slidb.TypeString},
	)
	tpcbHistorySchema = slidb.MustSchema(
		slidb.Column{Name: "h_client", Type: slidb.TypeInt},
		slidb.Column{Name: "h_seq", Type: slidb.TypeInt},
		slidb.Column{Name: "t_id", Type: slidb.TypeInt},
		slidb.Column{Name: "b_id", Type: slidb.TypeInt},
		slidb.Column{Name: "a_id", Type: slidb.TypeInt},
		slidb.Column{Name: "delta", Type: slidb.TypeInt},
		slidb.Column{Name: "filler", Type: slidb.TypeString},
	)
)

// TPC-B rows are 100 bytes (history 50); the fillers pad to that.
var (
	tpcbFiller  = strings.Repeat("x", 70)
	tpcbHFiller = strings.Repeat("h", 20)
)

func loadTPCB(db *slidb.Engine, sc scale) error {
	for _, t := range []struct {
		name   string
		schema *slidb.Schema
		pk     []string
	}{
		{tblBranches, branchSchema, []string{"b_id"}},
		{tblTellers, tellerSchema, []string{"t_id"}},
		{tblAccounts, accountSchema, []string{"a_id"}},
		{tblHistory, tpcbHistorySchema, []string{"h_client", "h_seq"}},
	} {
		if err := db.CreateTable(t.name, t.schema, t.pk); err != nil {
			return err
		}
	}
	for b := int64(1); b <= int64(sc.branches); b++ {
		err := db.Exec(func(tx *slidb.Tx) error {
			if err := tx.Insert(tblBranches, slidb.Row{slidb.Int(b), slidb.Int(0), slidb.String(tpcbFiller)}); err != nil {
				return err
			}
			for t := int64(1); t <= int64(sc.tellersPerBranch); t++ {
				tid := (b-1)*int64(sc.tellersPerBranch) + t
				if err := tx.Insert(tblTellers, slidb.Row{slidb.Int(tid), slidb.Int(b), slidb.Int(0), slidb.String(tpcbFiller)}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("load branch %d: %w", b, err)
		}
		const batch = 1000
		for lo := int64(1); lo <= int64(sc.accountsPerBranch); lo += batch {
			hi := min(lo+batch-1, int64(sc.accountsPerBranch))
			err := db.Exec(func(tx *slidb.Tx) error {
				for a := lo; a <= hi; a++ {
					aid := (b-1)*int64(sc.accountsPerBranch) + a
					if err := tx.Insert(tblAccounts, slidb.Row{slidb.Int(aid), slidb.Int(b), slidb.Int(0), slidb.String(tpcbFiller)}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("load accounts of branch %d: %w", b, err)
			}
		}
	}
	return nil
}

// nextTPCB draws a teller, then an account of the teller's branch (85 %) or
// of any branch (15 %), as the specification does. a = account, b = teller,
// c = the teller's branch.
func nextTPCB(g *gen, o *op) {
	g.begin(o, 0)
	branch := g.between(1, int64(g.sc.branches))
	o.c = branch
	o.b = (branch-1)*int64(g.sc.tellersPerBranch) + g.between(1, int64(g.sc.tellersPerBranch))
	accountBranch := branch
	if g.sc.branches > 1 && g.rng.IntN(100) < 15 {
		accountBranch = g.between(1, int64(g.sc.branches))
	}
	o.a = (accountBranch-1)*int64(g.sc.accountsPerBranch) + g.between(1, int64(g.sc.accountsPerBranch))
	o.amount = g.between(-99999, 99999)
}

func addTo(col int, delta int64) func(slidb.Row) (slidb.Row, error) {
	return func(r slidb.Row) (slidb.Row, error) {
		r[col] = slidb.Int(r[col].AsInt() + delta)
		return r, nil
	}
}

func bodyTPCB(t txn, o *op) error {
	if err := t.update(tblAccounts, []slidb.Value{slidb.Int(o.a)}, addTo(2, o.amount)); err != nil {
		return err
	}
	if err := t.update(tblTellers, []slidb.Value{slidb.Int(o.b)}, addTo(2, o.amount)); err != nil {
		return err
	}
	if err := t.update(tblBranches, []slidb.Value{slidb.Int(o.c)}, addTo(1, o.amount)); err != nil {
		return err
	}
	return t.insert(tblHistory, slidb.Row{
		slidb.Int(o.client), slidb.Int(o.seq), slidb.Int(o.b), slidb.Int(o.c), slidb.Int(o.a),
		slidb.Int(o.amount), slidb.String(tpcbHFiller),
	})
}

func countTPCB(t *tally, o *op, acked bool) {
	if acked {
		t.ackedSeq.set(o.seq)
	}
}

// checkTPCB verifies conservation (Σ account = Σ teller = Σ branch = Σ history
// delta), that every history row belongs to a transaction some client issued,
// that the row count lies between acknowledged and issued, and that every
// acknowledged (client, seq) has its row.
func checkTPCB(db *slidb.Engine, _ scale, clients []*tally) (bad []string, lostAcked int64) {
	sum := func(table string, col int) (s int64) {
		if err := scanAll(db, table, func(r slidb.Row) { s += r[col].AsInt() }); err != nil {
			bad = append(bad, fmt.Sprintf("scan %s: %v", table, err))
		}
		return s
	}
	accounts, tellers, branches := sum(tblAccounts, 2), sum(tblTellers, 2), sum(tblBranches, 1)

	var issued, acked, rows, history int64
	present := make([]bitset, len(clients)) // which (client, seq) have a history row
	for _, c := range clients {
		issued += c.issued
		acked += c.acked
	}
	err := scanAll(db, tblHistory, func(r slidb.Row) {
		rows++
		history += r[5].AsInt()
		client, seq := r[0].AsInt(), r[1].AsInt()
		if client < 0 || client >= int64(len(clients)) || seq < 0 || seq >= clients[client].issued {
			bad = append(bad, fmt.Sprintf("history row (%d,%d) was never issued", client, seq))
			return
		}
		present[client].set(seq)
	})
	if err != nil {
		bad = append(bad, fmt.Sprintf("scan %s: %v", tblHistory, err))
	}
	if accounts != history || tellers != history || branches != history {
		bad = append(bad, fmt.Sprintf("conservation broken: accounts %d, tellers %d, branches %d, history %d", accounts, tellers, branches, history))
	}
	if rows < acked || rows > issued {
		bad = append(bad, fmt.Sprintf("history has %d rows, outside [acknowledged %d, issued %d]", rows, acked, issued))
	}
	for c, t := range clients {
		for seq := int64(0); seq < t.issued; seq++ {
			if t.ackedSeq.has(seq) && !present[c].has(seq) {
				lostAcked++
			}
		}
	}
	if lostAcked > 0 {
		bad = append(bad, fmt.Sprintf("%d acknowledged transactions have no history row", lostAcked))
	}
	return bad, lostAcked
}

var tpcbRamlog = &workload{
	name: "tpcb_ramlog", ramlog: true, checkpoints: true, restartTxns: 10000, setups: 7,
	why:  "TPC-B update, 2 synchronous clients: the whole durable commit path with batches of at most 2, so lock, log append, flusher hand-off and force show as latency and a wider commit window is pure cost",
	load: loadTPCB, next: nextTPCB, body: bodyTPCB, count: countTPCB, check: checkTPCB,
}

// tpcb_durable keeps 8 futures outstanding per client: 16 logical sessions
// share the one flusher, so group commit and the async pipeline do the work.
var tpcbDurable = &workload{
	name: "tpcb_durable", depth: 8, checkpoints: true, restartTxns: 100000, setups: 7,
	why:  "The same TPC-B with 8 ExecAsync futures per client: 16 sessions share one flusher, so group commit, the flush window and the async pipeline set throughput, and the long log tail sets restart time",
	load: loadTPCB, next: nextTPCB, body: bodyTPCB, count: countTPCB, check: checkTPCB,
}
