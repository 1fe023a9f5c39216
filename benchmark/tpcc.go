package main

import (
	"fmt"
	"slices"
	"strings"

	"slidb"
)

// tpcc_mix: TPC-C shaped NewOrder / Payment / StockLevel over 2 warehouses.
// Money is integer cents. Every transaction takes its locks in the order
// warehouse -> district -> customer -> stock (ascending item), so no deadlock
// is intended; the engine retries the ones lock conversion still produces.
const (
	tpccNewOrder   = iota // a = w, b = d, c = customer, item/qty lines sorted by item
	tpccPayment           // a = w, b = d, c = customer's w, d = customer's d<<32|c_id, amount
	tpccStockLevel        // a = w, b = d, c = threshold
)

const (
	tblWarehouse = "warehouse"
	tblDistrict  = "district"
	tblCustomer  = "customer"
	tblItem      = "item"
	tblStock     = "stock"
	tblOrders    = "orders"
	tblNewOrder  = "new_order"
	tblOrderLine = "order_line"
	tblPayments  = "payment_history"
)

func intCols(names ...string) []slidb.Column {
	cols := make([]slidb.Column, len(names))
	for i, n := range names {
		cols[i] = slidb.Column{Name: n, Type: slidb.TypeInt}
	}
	return cols
}

func withFiller(cols []slidb.Column, name string) *slidb.Schema {
	return slidb.MustSchema(append(cols, slidb.Column{Name: name, Type: slidb.TypeString})...)
}

var tpccTables = []struct {
	name   string
	schema *slidb.Schema
	pk     []string
}{
	{tblWarehouse, withFiller(intCols("w_id", "w_ytd", "w_tax"), "w_name"), []string{"w_id"}},
	{tblDistrict, withFiller(intCols("d_w_id", "d_id", "d_ytd", "d_tax", "d_next_o_id"), "d_name"), []string{"d_w_id", "d_id"}},
	{tblCustomer, withFiller(intCols("c_w_id", "c_d_id", "c_id", "c_balance", "c_ytd_payment", "c_payment_cnt", "c_discount"), "c_data"), []string{"c_w_id", "c_d_id", "c_id"}},
	{tblItem, withFiller(intCols("i_id", "i_price"), "i_data"), []string{"i_id"}},
	{tblStock, withFiller(intCols("s_w_id", "s_i_id", "s_quantity", "s_ytd", "s_order_cnt"), "s_dist"), []string{"s_w_id", "s_i_id"}},
	{tblOrders, slidb.MustSchema(intCols("o_w_id", "o_d_id", "o_id", "o_c_id", "o_ol_cnt")...), []string{"o_w_id", "o_d_id", "o_id"}},
	{tblNewOrder, slidb.MustSchema(intCols("no_w_id", "no_d_id", "no_o_id")...), []string{"no_w_id", "no_d_id", "no_o_id"}},
	{tblOrderLine, slidb.MustSchema(intCols("ol_w_id", "ol_d_id", "ol_o_id", "ol_number", "ol_i_id", "ol_quantity", "ol_amount")...), []string{"ol_w_id", "ol_d_id", "ol_o_id", "ol_number"}},
	{tblPayments, slidb.MustSchema(intCols("h_client", "h_seq", "h_w_id", "h_d_id", "h_c_w_id", "h_c_d_id", "h_c_id", "h_amount")...), []string{"h_client", "h_seq"}},
}

func itemPrice(i int64) int64 { return 100 + int64(splitmix(uint64(i))%9900) }

// loadTPCC writes the static tables plus initialOrders delivered orders per
// district (so StockLevel has 20 orders to look back over from the start);
// d_next_o_id starts at initialOrders+1 and all ytd figures at 0.
func loadTPCC(db *slidb.Engine, sc scale) error {
	for _, t := range tpccTables {
		if err := db.CreateTable(t.name, t.schema, t.pk); err != nil {
			return err
		}
	}
	filler24, filler200 := strings.Repeat("d", 24), strings.Repeat("c", 200)
	// batched runs put(i) for i in [1,n] in transactions of 500.
	batched := func(what string, n int64, put func(tx *slidb.Tx, i int64) error) error {
		for lo := int64(1); lo <= n; lo += 500 {
			hi := min(lo+499, n)
			err := db.Exec(func(tx *slidb.Tx) error {
				for i := lo; i <= hi; i++ {
					if err := put(tx, i); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("load %s %d-%d: %w", what, lo, hi, err)
			}
		}
		return nil
	}
	if err := batched("items", int64(sc.items), func(tx *slidb.Tx, i int64) error {
		return tx.Insert(tblItem, slidb.Row{slidb.Int(i), slidb.Int(itemPrice(i)), slidb.String(filler24)})
	}); err != nil {
		return err
	}
	for w := int64(1); w <= int64(sc.warehouses); w++ {
		err := db.Exec(func(tx *slidb.Tx) error {
			if err := tx.Insert(tblWarehouse, slidb.Row{slidb.Int(w), slidb.Int(0), slidb.Int(int64(splitmix(uint64(w)) % 2000)), slidb.String(filler24)}); err != nil {
				return err
			}
			for d := int64(1); d <= int64(sc.districts); d++ {
				if err := tx.Insert(tblDistrict, slidb.Row{slidb.Int(w), slidb.Int(d), slidb.Int(0), slidb.Int(int64(splitmix(uint64(w<<8|d)) % 2000)),
					slidb.Int(int64(sc.initialOrders) + 1), slidb.String(filler24)}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("load warehouse %d: %w", w, err)
		}
		if err := batched("stock", int64(sc.items), func(tx *slidb.Tx, i int64) error {
			return tx.Insert(tblStock, slidb.Row{slidb.Int(w), slidb.Int(i), slidb.Int(10 + int64(splitmix(uint64(w<<32|i))%91)), slidb.Int(0), slidb.Int(0), slidb.String(filler24)})
		}); err != nil {
			return err
		}
		for d := int64(1); d <= int64(sc.districts); d++ {
			if err := batched("customers", int64(sc.customersPerDistrict), func(tx *slidb.Tx, c int64) error {
				return tx.Insert(tblCustomer, slidb.Row{slidb.Int(w), slidb.Int(d), slidb.Int(c), slidb.Int(-1000), slidb.Int(1000), slidb.Int(1),
					slidb.Int(int64(splitmix(uint64(w<<40|d<<32|c)) % 5000)), slidb.String(filler200)})
			}); err != nil {
				return err
			}
			if err := batched("orders", int64(sc.initialOrders), func(tx *slidb.Tx, o int64) error {
				h := splitmix(uint64(w<<40 | d<<32 | o))
				lines := 5 + int64(h%11)
				if err := tx.Insert(tblOrders, slidb.Row{slidb.Int(w), slidb.Int(d), slidb.Int(o), slidb.Int(1 + int64(h>>8)%int64(sc.customersPerDistrict)), slidb.Int(lines)}); err != nil {
					return err
				}
				for n := int64(1); n <= lines; n++ {
					item := 1 + int64(splitmix(h+uint64(n))%uint64(sc.items))
					if err := tx.Insert(tblOrderLine, slidb.Row{slidb.Int(w), slidb.Int(d), slidb.Int(o), slidb.Int(n), slidb.Int(item), slidb.Int(5), slidb.Int(5 * itemPrice(item))}); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func nextTPCC(g *gen, o *op) {
	sc := g.sc
	roll := g.rng.IntN(100)
	w, d := g.between(1, int64(sc.warehouses)), g.between(1, int64(sc.districts))
	customer := func() int64 { return g.nurand(1023, 1, int64(sc.customersPerDistrict)) }
	switch {
	case roll < 48:
		g.begin(o, tpccNewOrder)
		o.a, o.b, o.c = w, d, customer()
		o.nLines = int(g.between(5, maxOrderLines))
		for i := 0; i < o.nLines; i++ {
			// Distinct items, so each stock row is updated once per order.
			for {
				o.item[i] = g.nurand(8191, 1, int64(sc.items))
				if !slices.Contains(o.item[:i], o.item[i]) {
					break
				}
			}
			o.qty[i] = g.between(1, 10)
		}
		slices.Sort(o.item[:o.nLines])
	case roll < 95:
		g.begin(o, tpccPayment)
		cw, cd := w, d
		if sc.warehouses > 1 && g.rng.IntN(100) < 15 {
			cw, cd = g.between(1, int64(sc.warehouses)), g.between(1, int64(sc.districts))
		}
		o.a, o.b, o.c, o.d = w, d, cw, cd<<32|customer()
		o.amount = g.between(100, 500000)
	default:
		g.begin(o, tpccStockLevel)
		o.a, o.b, o.c = w, d, g.between(10, 20)
	}
}

func bodyTPCC(t txn, o *op) error {
	switch o.kind {
	case tpccNewOrder:
		return bodyNewOrder(t, o)
	case tpccPayment:
		return bodyPayment(t, o)
	default:
		return bodyStockLevel(t, o)
	}
}

func bodyNewOrder(t txn, o *op) error {
	w, d := slidb.Int(o.a), slidb.Int(o.b)
	if _, ok, err := t.get(tblWarehouse, w); err != nil || !ok {
		return orCheck(err)
	}
	var oid int64
	err := t.update(tblDistrict, []slidb.Value{w, d}, func(r slidb.Row) (slidb.Row, error) {
		oid = r[4].AsInt()
		r[4] = slidb.Int(oid + 1)
		return r, nil
	})
	if err != nil {
		return err
	}
	if _, ok, err := t.get(tblCustomer, w, d, slidb.Int(o.c)); err != nil || !ok {
		return orCheck(err)
	}
	if err := t.insert(tblOrders, slidb.Row{w, d, slidb.Int(oid), slidb.Int(o.c), slidb.Int(int64(o.nLines))}); err != nil {
		return err
	}
	if err := t.insert(tblNewOrder, slidb.Row{w, d, slidb.Int(oid)}); err != nil {
		return err
	}
	for i := 0; i < o.nLines; i++ {
		item, qty := o.item[i], o.qty[i]
		row, ok, err := t.get(tblItem, slidb.Int(item))
		if err != nil {
			return err
		}
		if !ok || row[1].AsInt() != itemPrice(item) {
			return errCheck
		}
		err = t.update(tblStock, []slidb.Value{w, slidb.Int(item)}, func(r slidb.Row) (slidb.Row, error) {
			left := r[2].AsInt() - qty
			if left < 10 {
				left += 91
			}
			r[2], r[3], r[4] = slidb.Int(left), slidb.Int(r[3].AsInt()+qty), slidb.Int(r[4].AsInt()+1)
			return r, nil
		})
		if err != nil {
			return err
		}
		if err := t.insert(tblOrderLine, slidb.Row{w, d, slidb.Int(oid), slidb.Int(int64(i + 1)), slidb.Int(item), slidb.Int(qty), slidb.Int(qty * row[1].AsInt())}); err != nil {
			return err
		}
	}
	return nil
}

func bodyPayment(t txn, o *op) error {
	w, d := slidb.Int(o.a), slidb.Int(o.b)
	if err := t.update(tblWarehouse, []slidb.Value{w}, addTo(1, o.amount)); err != nil {
		return err
	}
	if err := t.update(tblDistrict, []slidb.Value{w, d}, addTo(2, o.amount)); err != nil {
		return err
	}
	cw, cd, c := slidb.Int(o.c), slidb.Int(o.d>>32), slidb.Int(o.d&(1<<32-1))
	err := t.update(tblCustomer, []slidb.Value{cw, cd, c}, func(r slidb.Row) (slidb.Row, error) {
		r[3], r[4], r[5] = slidb.Int(r[3].AsInt()-o.amount), slidb.Int(r[4].AsInt()+o.amount), slidb.Int(r[5].AsInt()+1)
		return r, nil
	})
	if err != nil {
		return err
	}
	return t.insert(tblPayments, slidb.Row{slidb.Int(o.client), slidb.Int(o.seq), w, d, cw, cd, c, slidb.Int(o.amount)})
}

// bodyStockLevel counts the distinct items of the district's last 20 orders
// whose stock is below the threshold.
func bodyStockLevel(t txn, o *op) error {
	w, d := slidb.Int(o.a), slidb.Int(o.b)
	dist, ok, err := t.get(tblDistrict, w, d)
	if err != nil || !ok {
		return orCheck(err)
	}
	next := dist[4].AsInt()
	var items []int64
	err = t.scanRange(tblOrderLine, []slidb.Value{w, d, slidb.Int(next - 20)}, []slidb.Value{w, d, slidb.Int(next - 1)}, func(r slidb.Row) bool {
		items = append(items, r[4].AsInt())
		return true
	})
	if err != nil {
		return err
	}
	if len(items) < 20*5 {
		return errCheck // 20 orders of at least 5 lines each must be there
	}
	slices.Sort(items)
	o.result = 0
	for _, item := range slices.Compact(items) {
		row, ok, err := t.get(tblStock, w, slidb.Int(item))
		if err != nil || !ok {
			return orCheck(err)
		}
		if row[2].AsInt() < o.c {
			o.result++
		}
	}
	return nil
}

// orCheck turns "no error, but the row that must exist was missing" into a
// check failure.
func orCheck(err error) error {
	if err != nil {
		return err
	}
	return errCheck
}

func districtIndex(w, d int64) int { return int((w-1)*16 + d - 1) }

func countTPCC(t *tally, o *op, acked bool) {
	switch o.kind {
	case tpccNewOrder:
		if acked {
			t.ackedDelta[districtIndex(o.a, o.b)]++
		} else {
			t.issuedDelta[districtIndex(o.a, o.b)]++
		}
	case tpccPayment:
		if acked {
			t.ackedPay += o.amount
		} else {
			t.issuedPay += o.amount
		}
	}
}

// checkTPCC verifies, per district, d_next_o_id − initial = orders inserted =
// NewOrders (between acknowledged and issued), and Σ w_ytd = Σ d_ytd = Σ
// payment_history amounts (between acknowledged and issued payment totals).
func checkTPCC(db *slidb.Engine, sc scale, clients []*tally) (bad []string, _ int64) {
	var issued, acked tally
	for _, c := range clients {
		for i := range c.issuedDelta {
			issued.issuedDelta[i] += c.issuedDelta[i]
			acked.ackedDelta[i] += c.ackedDelta[i]
		}
		issued.issuedPay += c.issuedPay
		acked.ackedPay += c.ackedPay
	}
	scan := func(table string, fn func(slidb.Row)) {
		if err := scanAll(db, table, fn); err != nil {
			bad = append(bad, fmt.Sprintf("scan %s: %v", table, err))
		}
	}
	var nextOID, orders, newOrders [maxDistricts]int64
	var wYTD, dYTD, paid int64
	scan(tblWarehouse, func(r slidb.Row) { wYTD += r[1].AsInt() })
	scan(tblDistrict, func(r slidb.Row) {
		dYTD += r[2].AsInt()
		nextOID[districtIndex(r[0].AsInt(), r[1].AsInt())] = r[4].AsInt()
	})
	scan(tblOrders, func(r slidb.Row) {
		if r[2].AsInt() > int64(sc.initialOrders) {
			orders[districtIndex(r[0].AsInt(), r[1].AsInt())]++
		}
	})
	scan(tblNewOrder, func(r slidb.Row) { newOrders[districtIndex(r[0].AsInt(), r[1].AsInt())]++ })
	scan(tblPayments, func(r slidb.Row) { paid += r[7].AsInt() })

	for w := int64(1); w <= int64(sc.warehouses); w++ {
		for d := int64(1); d <= int64(sc.districts); d++ {
			i := districtIndex(w, d)
			grown := nextOID[i] - int64(sc.initialOrders) - 1
			if grown != orders[i] || grown != newOrders[i] {
				bad = append(bad, fmt.Sprintf("district (%d,%d): next_o_id grew by %d, orders %d, new_order %d", w, d, grown, orders[i], newOrders[i]))
			}
			if grown < acked.ackedDelta[i] || grown > issued.issuedDelta[i] {
				bad = append(bad, fmt.Sprintf("district (%d,%d): %d orders, outside [acknowledged %d, issued %d]", w, d, grown, acked.ackedDelta[i], issued.issuedDelta[i]))
			}
		}
	}
	if wYTD != dYTD || wYTD != paid {
		bad = append(bad, fmt.Sprintf("payment conservation broken: Σw_ytd %d, Σd_ytd %d, Σhistory %d", wYTD, dYTD, paid))
	}
	if paid < acked.ackedPay || paid > issued.issuedPay {
		bad = append(bad, fmt.Sprintf("payments total %d, outside [acknowledged %d, issued %d]", paid, acked.ackedPay, issued.issuedPay))
	}
	return bad, 0
}

var tpccMix = &workload{
	name: "tpcc_mix", ramlog: true, checkpoints: true, restartTxns: 5000, setups: 7,
	why:  "TPC-C shaped NewOrder/Payment/StockLevel: long transactions where heap, btree and record dominate, lockmgr is a minority and readers and writers wait for each other on hot rows: SLI's negative control",
	load: loadTPCC, next: nextTPCC, body: bodyTPCC, count: countTPCC, check: checkTPCC,
}
