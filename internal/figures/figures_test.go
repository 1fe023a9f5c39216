package figures

import (
	"strings"
	"testing"
	"time"
)

// tinyOptions keeps figure smoke tests fast.
func tinyOptions() Options {
	o := DefaultOptions().Quick()
	o.AgentCounts = []int{1, 4}
	o.PeakAgents = 4
	o.Duration = 80 * time.Millisecond
	o.Warmup = 10 * time.Millisecond
	o.TM1Subscribers = 300
	o.TPCBBranches = 2
	o.TPCBAccountsPerBranch = 100
	o.Workloads = []string{WLGetSub, WLTPCB}
	return o
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o = o.withDefaults()
	if o.PeakAgents <= 0 || o.Duration <= 0 || len(o.AgentCounts) == 0 || o.TM1Subscribers <= 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	if len(AllWorkloads()) < 10 {
		t.Fatal("workload list unexpectedly short")
	}
	if len(ShortWorkloads()) == 0 || len(Ablations()) != 6 {
		t.Fatal("helper listings wrong")
	}
	p := PaperOptions()
	if p.PeakAgents != 64 || p.IODelay == 0 {
		t.Fatalf("paper options wrong: %+v", p)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows:    []Row{{Label: "x", Values: []float64{1, 2}}},
	}
	s := tbl.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "x") {
		t.Fatalf("rendering missing pieces: %q", s)
	}
	if tbl.Value("x", "b") != 2 {
		t.Fatal("Value lookup wrong")
	}
	if tbl.Value("x", "missing") != 0 || tbl.Value("missing", "a") != 0 {
		t.Fatal("Value should return 0 for unknown label/column")
	}
}

func TestFigure1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation is slow")
	}
	o := tinyOptions()
	tbl, err := Figure1(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(o.AgentCounts) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(o.AgentCounts))
	}
	for _, r := range tbl.Rows {
		if r.Values[1] <= 0 {
			t.Fatalf("agent count %s produced no throughput", r.Label)
		}
	}
}

func TestFigure11AndBreakdownSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation is slow")
	}
	o := tinyOptions()
	for _, n := range []int{6, 8, 9, 10, 11} {
		tbl, err := Figure(n, o)
		if err != nil {
			t.Fatalf("figure %d: %v", n, err)
		}
		if len(tbl.Rows) != len(o.Workloads) {
			t.Fatalf("figure %d rows = %d, want %d", n, len(tbl.Rows), len(o.Workloads))
		}
	}
	if _, err := Figure(3, o); err == nil {
		t.Fatal("figure 3 should be rejected")
	}
}

func TestFigure7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation is slow")
	}
	o := tinyOptions()
	tbl, err := Figure7(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Columns) != 4 {
		t.Fatalf("columns = %v", tbl.Columns)
	}
	if len(tbl.Rows) != len(o.AgentCounts) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	o := tinyOptions()
	for _, name := range []string{"levels", "bimodal", "roving-hotspot", "sli-elr"} {
		tbl, err := Ablation(name, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tbl.Rows) < 2 {
			t.Fatalf("%s produced %d rows", name, len(tbl.Rows))
		}
	}
	if _, err := Ablation("nope", o); err == nil {
		t.Fatal("unknown ablation accepted")
	}
}

// TestDurableWorkloadWritesPerCycle runs TPC-B durably (real segment files)
// through RunWorkload with the full SLI+ELR pipeline at one agent and at
// two: the durable vectored flush path must stay near one physical write per
// flush cycle.
func TestDurableWorkloadWritesPerCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("durable runs are slow")
	}
	o := tinyOptions()
	o.DataDir = t.TempDir()
	o.EarlyLockRelease, o.EarlyLockReleaseAborts, o.AsyncCommit = true, true, true
	for _, agents := range []int{1, 2} {
		o.Clients = 4 * agents
		res, es, err := RunWorkload(WLTPCB, o, true, agents)
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed == 0 {
			t.Fatalf("agents=%d: nothing committed", agents)
		}
		// Exactly one vectored submission per data-carrying cycle, plus a
		// handful of segment creations over a short run.
		if wpc := es.WritesPerCycle(); wpc <= 0 || wpc > 1.5 {
			t.Fatalf("agents=%d: writes/cycle = %.2f, want ~1 on the vectored durable path", agents, wpc)
		}
	}
}

func TestBuildEngineRejectsBadKeys(t *testing.T) {
	o := tinyOptions()
	if _, _, err := o.buildEngine("garbage", false, 1); err == nil {
		t.Fatal("bad key accepted")
	}
	if _, _, err := o.buildEngine("nosuch/benchmark", false, 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := o.measure("ndbb/nosuchtx", false, 1); err == nil {
		t.Fatal("unknown transaction accepted")
	}
}
