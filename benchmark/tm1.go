package main

import (
	"fmt"

	"slidb"
)

// tm1_read: the two read-only transactions of the TM-1 (NDBB) telecom
// benchmark, over a subscriber table with the specification's 34 columns and
// 1-4 access_info rows per subscriber. Every column value is a function of
// the row's key, so each read can be verified.
const (
	tm1GetSubscriber = iota // a = s_id
	tm1GetAccess            // a = s_id, b = ai_type
)

const (
	tblSubscriber = "subscriber"
	tblAccessInfo = "access_info"
)

var subscriberSchema = func() *slidb.Schema {
	cols := []slidb.Column{{Name: "s_id", Type: slidb.TypeInt}, {Name: "sub_nbr", Type: slidb.TypeString}}
	for _, p := range []string{"bit", "hex", "byte2"} {
		for i := 1; i <= 10; i++ {
			cols = append(cols, slidb.Column{Name: fmt.Sprintf("%s_%d", p, i), Type: slidb.TypeInt})
		}
	}
	cols = append(cols, slidb.Column{Name: "msc_location", Type: slidb.TypeInt}, slidb.Column{Name: "vlr_location", Type: slidb.TypeInt})
	return slidb.MustSchema(cols...)
}()

var accessInfoSchema = slidb.MustSchema(
	slidb.Column{Name: "s_id", Type: slidb.TypeInt},
	slidb.Column{Name: "ai_type", Type: slidb.TypeInt},
	slidb.Column{Name: "data1", Type: slidb.TypeInt},
	slidb.Column{Name: "data2", Type: slidb.TypeInt},
	slidb.Column{Name: "data3", Type: slidb.TypeString},
	slidb.Column{Name: "data4", Type: slidb.TypeString},
)

// subscriberCol is the loader's value for integer column c (2..33) of
// subscriber sid: bits, hex digits, bytes, then two 31-bit locations.
func subscriberCol(sid int64, c int) int64 {
	h := splitmix(uint64(sid)<<6 | uint64(c))
	switch {
	case c < 12:
		return int64(h & 1)
	case c < 22:
		return int64(h & 15)
	case c < 32:
		return int64(h & 255)
	default:
		return int64(h & (1<<31 - 1))
	}
}

func subscriberRow(sid int64) slidb.Row {
	row := make(slidb.Row, 0, 34)
	row = append(row, slidb.Int(sid), slidb.String(fmt.Sprintf("%015d", sid)))
	for c := 2; c < 34; c++ {
		row = append(row, slidb.Int(subscriberCol(sid, c)))
	}
	return row
}

func checkSubscriber(row slidb.Row, sid int64) bool {
	if len(row) != 34 || row[0].AsInt() != sid {
		return false
	}
	nbr := row[1].AsString()
	if len(nbr) != 15 {
		return false
	}
	var n int64
	for i := 0; i < len(nbr); i++ {
		n = n*10 + int64(nbr[i]-'0')
	}
	if n != sid {
		return false
	}
	for c := 2; c < 34; c++ {
		if row[c].AsInt() != subscriberCol(sid, c) {
			return false
		}
	}
	return true
}

// accessTypes is how many access_info rows (ai_type 1..n) subscriber sid has.
func accessTypes(sid int64) int64 { return 1 + int64(splitmix(uint64(sid)<<6|63)%4) }

const aiAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

func accessInfoHash(sid, ai int64) uint64 { return splitmix(uint64(sid)<<6 | uint64(40+ai)) }

// aiLetter is character i of an access_info string column seeded with h.
func aiLetter(h uint64, i int) byte {
	for ; i > 0; i-- {
		h /= 26
	}
	return aiAlphabet[h%26]
}

func aiString(h uint64, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = aiLetter(h, i)
	}
	return string(b)
}

func accessInfoRow(sid, ai int64) slidb.Row {
	h := accessInfoHash(sid, ai)
	return slidb.Row{
		slidb.Int(sid), slidb.Int(ai),
		slidb.Int(int64(h & 255)), slidb.Int(int64(h >> 8 & 255)),
		slidb.String(aiString(h>>16, 3)), slidb.String(aiString(h>>32, 5)),
	}
}

func checkAccessInfo(row slidb.Row, sid, ai int64) bool {
	h := accessInfoHash(sid, ai)
	if len(row) != 6 || row[0].AsInt() != sid || row[1].AsInt() != ai ||
		row[2].AsInt() != int64(h&255) || row[3].AsInt() != int64(h>>8&255) {
		return false
	}
	d3, d4 := row[4].AsString(), row[5].AsString()
	if len(d3) != 3 || len(d4) != 5 {
		return false
	}
	for i := 0; i < 3; i++ {
		if d3[i] != aiLetter(h>>16, i) {
			return false
		}
	}
	for i := 0; i < 5; i++ {
		if d4[i] != aiLetter(h>>32, i) {
			return false
		}
	}
	return true
}

func tm1Rows(sc scale) (subscribers, accessInfos int64) {
	for sid := int64(1); sid <= int64(sc.subscribers); sid++ {
		accessInfos += accessTypes(sid)
	}
	return int64(sc.subscribers), accessInfos
}

var tm1Read = &workload{
	name: "tm1_read", restartTxns: 20000, setups: 3,
	why: "TM-1 read-only point lookups over a dataset twice the buffer pool: lockmgr and SLI's hot share-mode path dominate, buffer misses are real, and the log does nothing - the bypass for every log change",
	load: func(db *slidb.Engine, sc scale) error {
		if err := db.CreateTable(tblSubscriber, subscriberSchema, []string{"s_id"}); err != nil {
			return err
		}
		if err := db.CreateTable(tblAccessInfo, accessInfoSchema, []string{"s_id", "ai_type"}); err != nil {
			return err
		}
		const batch = 500
		for lo := int64(1); lo <= int64(sc.subscribers); lo += batch {
			hi := min(lo+batch-1, int64(sc.subscribers))
			err := db.Exec(func(tx *slidb.Tx) error {
				for sid := lo; sid <= hi; sid++ {
					if err := tx.Insert(tblSubscriber, subscriberRow(sid)); err != nil {
						return err
					}
					for ai := int64(1); ai <= accessTypes(sid); ai++ {
						if err := tx.Insert(tblAccessInfo, accessInfoRow(sid, ai)); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("load subscribers %d-%d: %w", lo, hi, err)
			}
		}
		// End the load with one sequential read of both tables. The dataset
		// is twice the pool, so this evicts — and writes back — every page
		// the load dirtied while no other reader is running. It is needed:
		// the buffer pool drops a dirty victim from its table before the
		// write-back reaches the store, and a concurrent Fetch of that page
		// in the gap loads an empty image (about one read in two million
		// failed here without this pass). See README, "Engine issue found".
		for _, table := range []string{tblSubscriber, tblAccessInfo} {
			if err := scanAll(db, table, func(slidb.Row) {}); err != nil {
				return fmt.Errorf("read back %s: %w", table, err)
			}
		}
		return nil
	},
	next: func(g *gen, o *op) {
		sid := g.between(1, int64(g.sc.subscribers))
		if g.rng.IntN(2) == 0 {
			g.begin(o, tm1GetSubscriber)
			o.a = sid
			return
		}
		g.begin(o, tm1GetAccess)
		o.a, o.b = sid, g.between(1, accessTypes(sid))
	},
	body: func(t txn, o *op) error {
		if o.kind == tm1GetSubscriber {
			row, ok, err := t.get(tblSubscriber, slidb.Int(o.a))
			if err != nil {
				return err
			}
			if !ok || !checkSubscriber(row, o.a) {
				return errCheck
			}
			return nil
		}
		row, ok, err := t.get(tblAccessInfo, slidb.Int(o.a), slidb.Int(o.b))
		if err != nil {
			return err
		}
		if !ok || !checkAccessInfo(row, o.a, o.b) {
			return errCheck
		}
		return nil
	},
	count: func(*tally, *op, bool) {},
	check: func(db *slidb.Engine, sc scale, _ []*tally) ([]string, int64) {
		// The transactions verified every row they read; what is left to
		// check is that nothing was lost or duplicated.
		var bad []string
		wantSub, wantAI := tm1Rows(sc)
		for _, tc := range []struct {
			table string
			want  int64
		}{{tblSubscriber, wantSub}, {tblAccessInfo, wantAI}} {
			var n int64
			if err := scanAll(db, tc.table, func(slidb.Row) { n++ }); err != nil {
				bad = append(bad, fmt.Sprintf("scan %s: %v", tc.table, err))
			} else if n != tc.want {
				bad = append(bad, fmt.Sprintf("%s has %d rows, loader wrote %d", tc.table, n, tc.want))
			}
		}
		return bad, 0
	},
}
