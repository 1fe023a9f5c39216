package main

import (
	"fmt"
	"math/rand/v2"

	"slidb"
)

// scale sizes the datasets. fullScale is what BENCHMARK.json measures;
// toyScale exists for the package's own tests.
type scale struct {
	subscribers int // tm1_read

	branches, tellersPerBranch, accountsPerBranch int // tpcb_*

	warehouses, districts, customersPerDistrict, items, initialOrders int // tpcc_mix
}

// fullScale.subscribers is the smallest multiple of 50 000 whose loaded heap is
// at least twice the engine's default 4096-frame pool: 150 000 subscribers
// load 6000 subscriber + 2389 access_info pages of 8 KiB (counted as the
// buffer misses of a cold scan of each table); 100 000 load 4000 + 1593.
var fullScale = scale{
	subscribers: 150000,
	branches:    10, tellersPerBranch: 10, accountsPerBranch: 10000,
	warehouses: 2, districts: 10, customersPerDistrict: 300, items: 10000, initialOrders: 30,
}

var toyScale = scale{
	subscribers: 1000,
	branches:    1, tellersPerBranch: 10, accountsPerBranch: 1000,
	warehouses: 1, districts: 2, customersPerDistrict: 30, items: 200, initialOrders: 25,
}

// maxOrderLines is TPC-C's upper bound on the lines of one NewOrder.
const maxOrderLines = 15

// op is one generated transaction: its type and every key and amount the body
// will use. The generator fills it from the seed alone; the engine sees
// nothing else of the seed.
type op struct {
	kind        uint8
	client, seq int64 // unique per transaction; the history key on tpcb_*/tpcc_mix
	a, b, c, d  int64 // keys, meaning per kind
	amount      int64
	result      int64 // what the transaction returned to its caller, where it returns a value
	nLines      int
	item, qty   [maxOrderLines]int64
}

// gen is one client's input generator. Each client owns a PCG stream derived
// from (seed, client), so its sequence does not depend on timing or on the
// other clients.
type gen struct {
	rng    *rand.Rand
	sc     scale
	client int64
	seq    int64
}

func newGen(seed uint64, client int, sc scale) *gen {
	return &gen{rng: rand.New(rand.NewPCG(seed, uint64(client)+1)), sc: sc, client: int64(client)}
}

// between returns a uniform integer in [lo, hi].
func (g *gen) between(lo, hi int64) int64 { return lo + g.rng.Int64N(hi-lo+1) }

// nurand is TPC-C's non-uniform random function with C = 0.
func (g *gen) nurand(a, lo, hi int64) int64 {
	return ((g.between(0, a)|g.between(lo, hi))%(hi-lo+1) + lo)
}

// begin stamps the next op with its identity.
func (g *gen) begin(o *op, kind uint8) {
	*o = op{kind: kind, client: g.client, seq: g.seq}
	g.seq++
}

// maxDistricts bounds warehouses × districts for the per-district tallies.
const maxDistricts = 64

// tally is what one client knows about the transactions it issued and the
// ones the engine acknowledged; the checkers compare the database with it.
// Before a crash every issued transaction is acknowledged or failed, so the
// acked and issued figures coincide and the checks are equalities; after a
// crash the database must lie between them.
type tally struct {
	issued, acked int64
	ackedSeq      bitset // which of this client's transactions (by seq) were acknowledged

	issuedDelta, ackedDelta [maxDistricts]int64 // tpcc: NewOrders per district
	issuedPay, ackedPay     int64               // tpcc: Σ payment amounts
}

// bitset is a growable set of small non-negative integers.
type bitset []uint64

func (b *bitset) set(i int64) {
	w := int(i >> 6)
	for w >= len(*b) {
		*b = append(*b, make([]uint64, len(*b)+1024)...)
	}
	(*b)[w] |= 1 << uint(i&63)
}

func (b bitset) has(i int64) bool {
	w := int(i >> 6)
	return w < len(b) && b[w]&(1<<uint(i&63)) != 0
}

// workload is one of the benchmark's traffic mixes.
type workload struct {
	name string
	// why is the workload's one-line reason in BENCHMARK.json.
	why string
	// depth is how many ExecAsync futures each client keeps outstanding;
	// 0 means the client calls the synchronous Exec.
	depth int
	// ramlog places the data directory under -ramdir instead of -datadir.
	ramlog bool
	// checkpoints says whether the log grows during a run, i.e. whether a
	// Checkpoint between intervals is needed to bound it.
	checkpoints bool
	// restartTxns is how many transactions are acknowledged between the last
	// checkpoint and the crash of the restart phase.
	restartTxns int
	// setups is how many times the end-to-end run opens and loads a fresh
	// engine; setup_s is their median. Short loads get more repeats.
	setups int

	load  func(db *slidb.Engine, sc scale) error
	next  func(g *gen, o *op)
	body  func(t txn, o *op) error
	count func(t *tally, o *op, acked bool) // called at issue (acked=false) and at ack (acked=true)
	// check compares the database with the merged tallies and returns one
	// message per violated invariant, plus the number of acknowledged
	// transactions whose effects are missing.
	check func(db *slidb.Engine, sc scale, clients []*tally) (violations []string, lostAcked int64)
}

var workloads = []*workload{tm1Read, tpcbRamlog, tpcbDurable, tpccMix}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// errCheck marks a transaction whose result did not match what the loader or
// an earlier acknowledged transaction must have left behind.
var errCheck = fmt.Errorf("benchmark: result check failed")

// splitmix is the 64-bit finalizer the loaders derive column values from, so
// a reader can recompute what any row must contain from its key alone.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// scanAll runs one read-only transaction that scans a table under a table
// lock and passes every row to fn.
func scanAll(db *slidb.Engine, table string, fn func(slidb.Row)) error {
	return db.Exec(func(tx *slidb.Tx) error {
		return tx.ScanTable(table, func(r slidb.Row) bool { fn(r); return true })
	})
}
