package tpcc

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"slidb/internal/core"
	"slidb/internal/record"
	"slidb/internal/workload"
)

func smallConfig() Config {
	return Config{Warehouses: 1, DistrictsPerWarehouse: 3, CustomersPerDistrict: 20, Items: 100}
}

func loadSmall(t testing.TB, engineCfg core.Config) (*core.Engine, Config) {
	t.Helper()
	e := core.Open(engineCfg)
	t.Cleanup(func() { e.Close() })
	cfg := smallConfig()
	if err := Load(e, cfg); err != nil {
		t.Fatal(err)
	}
	return e, cfg
}

func TestLoadPopulatesAllNineTables(t *testing.T) {
	e, cfg := loadSmall(t, core.Config{Agents: 1})
	counts := map[string]int{}
	err := e.Exec(func(tx *core.Tx) error {
		for name := range Schemas() {
			n := 0
			if err := tx.ScanTable(name, func(record.Row) bool { n++; return true }); err != nil {
				return err
			}
			counts[name] = n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts[TableWarehouse] != cfg.Warehouses {
		t.Fatalf("warehouses = %d", counts[TableWarehouse])
	}
	if counts[TableDistrict] != cfg.Warehouses*cfg.DistrictsPerWarehouse {
		t.Fatalf("districts = %d", counts[TableDistrict])
	}
	if counts[TableCustomer] != cfg.Warehouses*cfg.DistrictsPerWarehouse*cfg.CustomersPerDistrict {
		t.Fatalf("customers = %d", counts[TableCustomer])
	}
	if counts[TableItem] != cfg.Items {
		t.Fatalf("items = %d", counts[TableItem])
	}
	if counts[TableStock] != cfg.Warehouses*cfg.Items {
		t.Fatalf("stock = %d", counts[TableStock])
	}
	if counts[TableOrders] == 0 || counts[TableOrderLine] == 0 || counts[TableNewOrder] == 0 {
		t.Fatalf("order tables empty: %v", counts)
	}
	if len(Transactions()) != 5 || len(Mixes()) != 2 {
		t.Fatal("transaction/mix listings wrong")
	}
}

func TestLastNameSyllables(t *testing.T) {
	if LastName(0) != "BARBARBAR" {
		t.Fatalf("LastName(0) = %s", LastName(0))
	}
	if LastName(371) != "PRICALLYOUGHT" {
		t.Fatalf("LastName(371) = %s", LastName(371))
	}
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		seen[LastName(i)] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("LastName not injective over [0,999]: %d distinct", len(seen))
	}
}

// runTx runs a fixed count of name transactions on each of three clients,
// so a loaded machine takes longer instead of committing fewer.
func runTx(t *testing.T, e *core.Engine, cfg Config, name string) workload.Result {
	t.Helper()
	gen, err := NewGenerator(cfg, name)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 3, 40
	var mu sync.Mutex
	var res workload.Result
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				_, fn := gen.Next(rng)
				err := e.Exec(fn)
				mu.Lock()
				switch {
				case err == nil:
					res.Committed++
				case errors.Is(err, core.Abort):
					res.Failed++
				default:
					res.Errors++
				}
				mu.Unlock()
			}
		}(rand.New(rand.NewSource(23 + int64(c))))
	}
	wg.Wait()
	return res
}

func TestNewOrderAndPaymentRun(t *testing.T) {
	e, cfg := loadSmall(t, core.Config{Agents: 3})
	res := runTx(t, e, cfg, TxNewOrder)
	if res.Errors > 0 || res.Committed == 0 {
		t.Fatalf("NewOrder: %+v", res)
	}
	res = runTx(t, e, cfg, TxPayment)
	if res.Errors > 0 || res.Committed == 0 {
		t.Fatalf("Payment: %+v", res)
	}
}

func TestReadOnlyAndDeliveryTransactionsRun(t *testing.T) {
	e, cfg := loadSmall(t, core.Config{Agents: 3})
	for _, name := range []string{TxOrderStatus, TxStockLevel, TxDelivery} {
		res := runTx(t, e, cfg, name)
		if res.Errors > 0 {
			t.Fatalf("%s: %d unexpected errors", name, res.Errors)
		}
		if res.Committed == 0 {
			t.Fatalf("%s: nothing committed", name)
		}
	}
}

func TestMixesRun(t *testing.T) {
	e, cfg := loadSmall(t, core.Config{Agents: 4, SLI: true})
	for _, mix := range Mixes() {
		gen, err := NewGenerator(cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		res := workload.Run(e, gen, workload.Options{Clients: 4, Duration: 250 * time.Millisecond, Seed: 31})
		if res.Errors > 0 {
			t.Fatalf("%s: %d unexpected errors", mix, res.Errors)
		}
		if res.Committed == 0 {
			t.Fatalf("%s: nothing committed", mix)
		}
	}
}

func TestNewOrderConsistency(t *testing.T) {
	// After a burst of NewOrder transactions, every order must have exactly
	// o_ol_cnt order lines and district next_o_id must exceed every order id.
	e, cfg := loadSmall(t, core.Config{Agents: 3})
	runTx(t, e, cfg, TxNewOrder)
	err := e.Exec(func(tx *core.Tx) error {
		lineCounts := map[[3]int64]int64{}
		if err := tx.ScanTable(TableOrderLine, func(r record.Row) bool {
			key := [3]int64{r[0].AsInt(), r[1].AsInt(), r[2].AsInt()}
			lineCounts[key]++
			return true
		}); err != nil {
			return err
		}
		bad := 0
		if err := tx.ScanTable(TableOrders, func(r record.Row) bool {
			key := [3]int64{r[0].AsInt(), r[1].AsInt(), r[2].AsInt()}
			if lineCounts[key] != r[6].AsInt() {
				bad++
			}
			return true
		}); err != nil {
			return err
		}
		if bad != 0 {
			t.Errorf("%d orders have mismatched order_line counts", bad)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorUnknownName(t *testing.T) {
	if _, err := NewGenerator(Config{}, "nope"); err == nil {
		t.Fatal("unknown transaction accepted")
	}
}
