package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"slidb"
	"slidb/internal/buffer"
	"slidb/internal/obs"
	"slidb/internal/profiler"
	"slidb/internal/recovery"
	"slidb/internal/wal"
)

// Load shape, the same on every workload: the sandbox has two cores, so two
// agents and two client goroutines keep runnable threads at or below cores and
// the numbers are the engine's, not the Go scheduler's.
const (
	numAgents  = 2
	numClients = 2
)

// engineConfig is the only place an engine configuration is built. It names
// the commit pipeline the benchmark measures and nothing else: every other
// field stays at its zero value, so a change of defaults shows up as a change
// in the numbers and a deleted knob does not break the build.
func engineConfig(traced bool) slidb.Config {
	return slidb.Config{
		Agents:                 numAgents,
		SLI:                    true,
		EarlyLockRelease:       true,
		EarlyLockReleaseAborts: true,
		AsyncCommit:            true,
		Profile:                traced,
	}
}

// plan says how one engine is set up, loaded, measured and restarted.
type plan struct {
	w      *workload
	sc     scale
	seed   uint64
	dir    string // parent of the data directories this run creates and removes
	traced bool

	setups    int           // set up this many times, keep the last; setup_s is the median
	warmup    time.Duration // untimed
	intervals int
	interval  time.Duration

	restartTxns int // acknowledged transactions between the last checkpoint and the crash; 0 skips the restart phase
	restarts    int // reopen this many fresh copies of the crashed directory; restart_s is the median
	analyze     int // time recovery.Analyze over the crashed log this many times (0 = skip)

	spanCap  int    // spans per client
	traceOut string // write spans here as JSON lines ("" = keep in memory only)
}

// counters is one snapshot of everything the engine exports.
type counters struct {
	lock      slidb.LockStats
	tail      obs.LogTailStats
	buf       buffer.StatsSnapshot
	prof      profiler.Breakdown
	committed uint64
	mem       runtime.MemStats
}

func snapshot(db *slidb.Engine) counters {
	c := counters{
		lock:      db.LockStats(),
		tail:      db.LogTail(),
		buf:       db.BufferStats(),
		prof:      db.Profiler().Aggregate(),
		committed: db.Committed(),
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// outcome is everything one plan produced.
type outcome struct {
	setupS []float64

	// Per timed interval.
	tps, p50us, p99us, p999us []float64
	samples                   []int // latency samples per interval
	measured                  time.Duration

	attempted, failed int64
	violations        []string
	lostAcked         int64

	before, after counters
	lagBytes      []float64 // durable lag, sampled during the timed windows
	checkpointMS  []float64

	restartS       []float64
	rec            slidb.RecoveryStats
	logBytesPerTxn float64
	crashAcked     int64
	analyzeUS      []float64 // per 1000 records

	spans spanStats
}

// checkpoint takes a checkpoint and records how long the engine stopped the
// world for it.
func (o *outcome) checkpoint(db *slidb.Engine) error {
	t0 := time.Now()
	if err := db.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	o.checkpointMS = append(o.checkpointMS, float64(time.Since(t0).Microseconds())/1e3)
	return nil
}

// session is one logical connection: the op in flight, the body closure that
// runs it, and the trace scratch the body fills.
type session struct {
	op   op
	tr   txTrace
	fn   func(*slidb.Tx) error
	call int64
	fut  <-chan error
}

type client struct {
	gen      *gen
	tally    tally
	sessions []session
	lat      []int64 // latency samples of the current interval, preallocated
	dropped  int64   // samples that did not fit
	failed   int64
	spans    *spanBuf
}

// runner drives the clients of one engine through warm-up, timed intervals
// and the crash.
type runner struct {
	p       *plan
	db      *slidb.Engine
	clients []*client
	merged  []int64 // the clients' latency samples of one interval, reused

	stop      atomic.Bool
	recording bool // set between intervals only

	crashAfter int64        // >0: the client whose ack makes the total reach this crashes the engine
	acked      atomic.Int64 // acknowledgements in the current phase
	crashed    atomic.Bool
}

// crashDeadline bounds the restart phase's run-up, which ends by itself when
// the N-th acknowledgement crashes the engine (about a second).
const crashDeadline = time.Minute

// maxLatSamples bounds one client's latency samples per interval (32 MiB).
const maxLatSamples = 1 << 22

func newRunner(p *plan, db *slidb.Engine) *runner {
	r := &runner{p: p, db: db}
	for c := 0; c < numClients; c++ {
		cl := &client{gen: newGen(p.seed, c, p.sc), lat: make([]int64, 0, maxLatSamples)}
		if p.traced {
			cl.spans = newSpanBuf(p.spanCap)
		}
		cl.sessions = make([]session, max(1, p.w.depth))
		for i := range cl.sessions {
			s := &cl.sessions[i]
			s.fn = func(tx *slidb.Tx) error {
				t := txn{tx: tx}
				if p.traced {
					s.tr.begin()
					t.tr = &s.tr
				}
				err := p.w.body(t, &s.op)
				if p.traced {
					s.tr.bodyEnd = nowNS()
				}
				return err
			}
		}
		r.clients = append(r.clients, cl)
	}
	return r
}

func (r *runner) issue(c *client, s *session) {
	r.p.w.next(c.gen, &s.op)
	c.tally.issued++
	r.p.w.count(&c.tally, &s.op, false)
	s.tr.reset()
}

// complete accounts for one finished transaction and reports whether the
// client should go on.
func (r *runner) complete(c *client, s *session, call, done int64, err error) bool {
	if err != nil {
		if r.crashed.Load() {
			return false // cut off by the deliberate crash: issued, not acknowledged, not a failure
		}
		c.failed++
		if c.failed == 1 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: transaction failed: %v\n", r.p.w.name, err)
		}
		return true
	}
	c.tally.acked++
	r.p.w.count(&c.tally, &s.op, true)
	// A transaction belongs to the interval if it completed before the stop
	// was signalled; the one (or depth) in flight at the stop is dropped from
	// the timing and kept for the checks.
	if r.recording && !r.stop.Load() {
		if len(c.lat) < cap(c.lat) {
			c.lat = append(c.lat, done-call)
		} else {
			c.dropped++
		}
		if c.spans != nil {
			c.spans.add(uint64(s.op.client)<<40|uint64(s.op.seq), call, done, &s.tr)
		}
	}
	if r.crashAfter > 0 && r.acked.Add(1) == r.crashAfter {
		r.crashed.Store(true)
		r.db.SimulateCrash()
		r.stop.Store(true)
		return false
	}
	return true
}

func (r *runner) runSync(c *client) {
	s := &c.sessions[0]
	for !r.stop.Load() {
		r.issue(c, s)
		call := nowNS()
		err := r.db.Exec(s.fn)
		if !r.complete(c, s, call, nowNS(), err) {
			return
		}
	}
}

// runAsync keeps every session's future outstanding and collects them oldest
// first; the engine acknowledges in commit order, so the oldest is (almost
// always) the next to resolve.
func (r *runner) runAsync(c *client) {
	n, head, inflight := len(c.sessions), 0, 0
	halted := false
	for {
		for inflight < n && !halted && !r.stop.Load() {
			s := &c.sessions[(head+inflight)%n]
			r.issue(c, s)
			s.call = nowNS()
			s.fut = r.db.ExecAsync(s.fn)
			inflight++
		}
		if inflight == 0 {
			return
		}
		s := &c.sessions[head]
		err := <-s.fut
		if !r.complete(c, s, s.call, nowNS(), err) {
			halted = true
		}
		head = (head + 1) % n
		inflight--
	}
}

// phase runs every client until d has passed or a client stops the phase
// itself (the crash of the restart phase), and returns the window's length.
func (r *runner) phase(d time.Duration, sampleLag func()) time.Duration {
	r.stop.Store(false)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range r.clients {
		c.lat = c.lat[:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if r.p.w.depth > 0 {
				r.runAsync(c)
			} else {
				r.runSync(c)
			}
		}()
	}
	t0 := nowNS()
	close(start)
	deadline := t0 + int64(d)
	for nowNS() < deadline && !r.stop.Load() {
		time.Sleep(min(50*time.Millisecond, time.Duration(deadline-nowNS())))
		if sampleLag != nil {
			sampleLag()
		}
	}
	r.stop.Store(true)
	elapsed := nowNS() - t0
	wg.Wait()
	return time.Duration(elapsed)
}

// interval runs one timed window and folds the clients' samples into it.
func (r *runner) interval(o *outcome) {
	r.recording = true
	elapsed := r.phase(r.p.interval, func() { o.lagBytes = append(o.lagBytes, float64(r.db.DurableLag())) })
	r.recording = false
	all := r.merged[:0]
	for _, c := range r.clients {
		all = append(all, c.lat...)
	}
	slices.Sort(all)
	r.merged = all
	o.tps = append(o.tps, float64(len(all))/elapsed.Seconds())
	o.p50us = append(o.p50us, float64(percentile(all, 0.50))/1e3)
	o.p99us = append(o.p99us, float64(percentile(all, 0.99))/1e3)
	o.p999us = append(o.p999us, float64(percentile(all, 0.999))/1e3)
	o.samples = append(o.samples, len(all))
	o.measured += elapsed
}

func (r *runner) tallies() []*tally {
	out := make([]*tally, len(r.clients))
	for i, c := range r.clients {
		out[i] = &c.tally
	}
	return out
}

// setUp opens a fresh durable engine in dir and loads the workload's dataset.
func setUp(p *plan, dir string) (*slidb.Engine, error) {
	db, err := slidb.OpenAt(dir, engineConfig(p.traced))
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	if err := p.w.load(db, p.sc); err != nil {
		db.Close()
		return nil, fmt.Errorf("load %s: %w", p.w.name, err)
	}
	return db, nil
}

// execute carries out a plan: set-up, warm-up, timed intervals, checks, and
// the restart phase.
func execute(p *plan) (*outcome, error) {
	o := &outcome{}
	var db *slidb.Engine
	var dir string
	for i := 0; i < p.setups; i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, fmt.Errorf("close engine: %w", err)
			}
			os.RemoveAll(dir)
		}
		dir = filepath.Join(p.dir, fmt.Sprintf("%s-%d-%d", p.w.name, os.Getpid(), i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if db, err = setUp(p, dir); err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}
	defer os.RemoveAll(dir)
	defer func() { db.Close() }() // whichever engine is current: the restart phase replaces it

	r := newRunner(p, db)
	r.phase(p.warmup, nil)
	if p.w.checkpoints {
		if err := o.checkpoint(db); err != nil {
			return nil, err
		}
	}
	o.before = snapshot(db)
	for i := 0; i < p.intervals; i++ {
		r.interval(o)
		if p.w.checkpoints && i < p.intervals-1 {
			// Outside the timed window: bounds the log, and its duration is
			// the stop-the-world pause recovery.checkpoint_ms reports.
			if err := o.checkpoint(db); err != nil {
				return nil, err
			}
		}
	}
	o.after = snapshot(db)
	if p.traced {
		bufs := make([]*spanBuf, len(r.clients))
		for i, c := range r.clients {
			bufs[i] = c.spans
			c.spans = nil // the restart phase is not traced
		}
		o.spans = summarizeSpans(bufs)
		if p.traceOut != "" {
			if err := writeSpans(p.traceOut, p.w.name, bufs); err != nil {
				return nil, err
			}
		}
	}

	o.violations, o.lostAcked = p.w.check(db, p.sc, r.tallies())

	if p.restartTxns > 0 {
		reopened, err := restartPhase(p, r, o, dir)
		if err != nil {
			return nil, err
		}
		db = reopened
	}
	for _, c := range r.clients {
		o.attempted += c.tally.issued
		o.failed += c.failed
		if c.dropped > 0 {
			o.violations = append(o.violations, fmt.Sprintf("%d latency samples did not fit the buffer", c.dropped))
		}
	}
	o.failed += int64(len(o.violations))
	return o, nil
}

// restartPhase checkpoints, lets exactly restartTxns more transactions be
// acknowledged, crashes the engine under load, and times OpenAt on what the
// crash left. It returns the reopened engine, which has passed the checks.
func restartPhase(p *plan, r *runner, o *outcome, dir string) (*slidb.Engine, error) {
	if err := o.checkpoint(r.db); err != nil {
		return nil, err
	}
	r.crashAfter = int64(p.restartTxns)
	r.phase(crashDeadline, nil)
	o.crashAcked = r.acked.Load()
	if !r.crashed.Load() {
		return nil, fmt.Errorf("restart phase: only %d of %d transactions acknowledged after %v", o.crashAcked, p.restartTxns, crashDeadline)
	}
	// Transactions the crash cut off were issued and are neither acknowledged
	// nor failed; the checks below allow them to be wholly present or absent.

	// What the crash left on disk, read the way OpenAt will read it.
	segs, err := wal.OpenSegments(dir, 0, false)
	if err != nil {
		return nil, fmt.Errorf("open crashed log: %w", err)
	}
	logEnd := uint64(segs.End())
	ckpt, haveCkpt, err := recovery.ReadCheckpoint(dir)
	if err != nil || !haveCkpt {
		segs.Crash()
		return nil, fmt.Errorf("read checkpoint of crashed directory: found=%v err=%v", haveCkpt, err)
	}
	for i := 0; i < p.analyze; i++ {
		t0 := time.Now()
		an, err := recovery.Analyze(func(fn func(wal.Record) error) error { return segs.Iterate(ckpt.LSN, fn) })
		if err != nil {
			segs.Crash()
			return nil, fmt.Errorf("analyze crashed log: %w", err)
		}
		o.analyzeUS = append(o.analyzeUS, ratio(float64(time.Since(t0).Nanoseconds())/1e3, float64(an.Scanned)/1e3))
	}
	segs.Crash()                   // close without the sync and seal a Close would add to the crashed state
	if logEnd > uint64(ckpt.LSN) { // a read-only phase leaves no segment behind the checkpoint
		o.logBytesPerTxn = float64(logEnd-uint64(ckpt.LSN)) / float64(o.crashAcked)
	}

	// Recovery writes to the directory it recovers (a CLR per undone record,
	// an abort record per loser), so every timed reopen gets its own copy of
	// what the crash left: each analyses, redoes and undoes the same tail.
	crashed := dir + ".crashed"
	if err := os.Rename(dir, crashed); err != nil {
		return nil, err
	}
	defer os.RemoveAll(crashed)
	var db *slidb.Engine
	for i := 0; i < p.restarts; i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, fmt.Errorf("close reopened engine: %w", err)
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.CopyFS(dir, os.DirFS(crashed)); err != nil {
			return nil, fmt.Errorf("copy crashed directory: %w", err)
		}
		t0 := time.Now()
		if db, err = slidb.OpenAt(dir, engineConfig(p.traced)); err != nil {
			return nil, fmt.Errorf("reopen after crash: %w", err)
		}
		o.restartS = append(o.restartS, time.Since(t0).Seconds())
	}
	o.rec = db.RecoveryStats()
	bad, lost := p.w.check(db, p.sc, r.tallies())
	for _, b := range bad {
		o.violations = append(o.violations, "after restart: "+b)
	}
	o.lostAcked += lost
	if db.UndoFailures() != 0 {
		o.violations = append(o.violations, fmt.Sprintf("after restart: %d undo failures", db.UndoFailures()))
	}
	return db, nil
}
