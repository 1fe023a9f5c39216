package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slidb/internal/profiler"
	"slidb/internal/record"
)

func openELREngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := Open(cfg)
	t.Cleanup(func() { e.Close() })
	schema := record.MustSchema(
		record.Column{Name: "id", Type: record.TypeInt},
		record.Column{Name: "v", Type: record.TypeInt},
	)
	if err := e.CreateTable("t", schema, []string{"id"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Tx) error {
		return tx.Insert("t", record.Row{record.Int(1), record.Int(0)})
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestELRReaderObservesPreCommittedData pins the ELR anomaly window: with a
// slow log force, a writer's locks are released at commit-record append, so
// a reader sees the new value while the writer's durable ack is still
// pending. Without ELR the reader would block behind the writer's X lock for
// the whole force.
func TestELRReaderObservesPreCommittedData(t *testing.T) {
	e := openELREngine(t, Config{
		Agents:           2,
		EarlyLockRelease: true,
		AsyncCommit:      true,
		LogFlushDelay:    300 * time.Millisecond,
	})

	writerDone := e.ExecAsync(func(tx *Tx) error {
		return tx.Update("t", []record.Value{record.Int(1)}, func(r record.Row) (record.Row, error) {
			r[1] = record.Int(42)
			return r, nil
		})
	})

	// The reader is read-only: it never appends a log record, so it resolves
	// without waiting for any flush. It must observe the pre-committed value
	// quickly — the writer's X lock was released at pre-commit.
	var observed int64
	readStart := time.Now()
	deadline := time.After(5 * time.Second)
	for observed != 42 {
		select {
		case <-deadline:
			t.Fatalf("reader never observed pre-committed value (last saw %d)", observed)
		default:
		}
		if err := e.Exec(func(tx *Tx) error {
			row, ok, err := tx.Get("t", record.Int(1))
			if err != nil || !ok {
				return err
			}
			observed = row[1].AsInt()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	readElapsed := time.Since(readStart)

	// The writer's commit must still be inside the force: its durable ack is
	// pending even though its data is already visible.
	if readElapsed < 250*time.Millisecond {
		select {
		case err := <-writerDone:
			t.Fatalf("writer durable ack resolved before the log force elapsed (err=%v)", err)
		default:
		}
	}
	if err := <-writerDone; err != nil {
		t.Fatalf("writer durable ack: %v", err)
	}
	if got := e.LockStats().ELRReleases; got == 0 {
		t.Fatal("EarlyLockRelease active but no early releases counted")
	}
}

// TestELRLockHoldExcludesFlushWait asserts the acceptance property: with ELR
// on, no transaction holds its locks across a WAL fsync. N conflicting
// writers serialize on one row's X lock; without ELR the lock is held across
// each LogFlushDelay, so the run needs at least N*delay. With ELR the lock
// is held only for the in-memory part, flushes batch in the background, and
// the whole run finishes in a small multiple of one delay. The flush wait
// still happens — it just lands in the LogFlush profiler category instead of
// inside the lock hold window.
func TestELRLockHoldExcludesFlushWait(t *testing.T) {
	const (
		n     = 20
		delay = 30 * time.Millisecond
	)
	e := openELREngine(t, Config{
		Agents:           4,
		EarlyLockRelease: true,
		AsyncCommit:      true,
		LogFlushDelay:    delay,
		Profile:          true,
	})

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- e.Exec(func(tx *Tx) error {
				return tx.Update("t", []record.Value{record.Int(1)}, func(r record.Row) (record.Row, error) {
					r[1] = record.Int(r[1].AsInt() + 1)
					return r, nil
				})
			})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)

	// Serialized lock-held flushes would need n*delay = 600ms. Allow a wide
	// margin for slow CI while still distinguishing the two regimes.
	if elapsed >= time.Duration(n)*delay {
		t.Errorf("run took %v, want well under %v (locks appear to be held across flushes)", elapsed, time.Duration(n)*delay)
	}
	b := e.Profiler().Aggregate()
	if b.Get(profiler.LogFlush) == 0 {
		t.Error("no time attributed to LogFlush; the flush wait went unaccounted")
	}
	if got := e.LockStats().ELRReleases; got < n {
		t.Errorf("ELRReleases = %d, want >= %d", got, n)
	}
	var final int64
	if err := e.Exec(func(tx *Tx) error {
		row, _, err := tx.Get("t", record.Int(1))
		final = row[1].AsInt()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if final != n {
		t.Fatalf("final value = %d, want %d", final, n)
	}
}

// TestExecAsyncAckOrderingUnderLoad hammers ExecAsync from many goroutines
// with conflicting increments (run under -race). Every future must resolve
// nil, the final value must count every ack, and a resolved future implies
// durability: after each ack the engine's durable lag cannot exceed the
// records appended after that commit.
func TestExecAsyncAckOrderingUnderLoad(t *testing.T) {
	const writers, perWriter = 8, 25
	e := openELREngine(t, Config{
		Agents:           4,
		EarlyLockRelease: true,
		AsyncCommit:      true,
		LogFlushDelay:    200 * time.Microsecond,
		Profile:          true,
	})

	var pending [writers * perWriter]<-chan error
	var idx atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				fut := e.ExecAsync(func(tx *Tx) error {
					return tx.Update("t", []record.Value{record.Int(1)}, func(r record.Row) (record.Row, error) {
						r[1] = record.Int(r[1].AsInt() + 1)
						return r, nil
					})
				})
				pending[idx.Add(1)-1] = fut
			}
		}()
	}
	wg.Wait()
	for i, fut := range pending {
		if err := <-fut; err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	var final int64
	if err := e.Exec(func(tx *Tx) error {
		row, _, err := tx.Get("t", record.Int(1))
		final = row[1].AsInt()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if want := int64(writers * perWriter); final != want {
		t.Fatalf("final value = %d, want %d", final, want)
	}
	if e.Committed() < writers*perWriter {
		t.Fatalf("committed = %d, want >= %d", e.Committed(), writers*perWriter)
	}
}

// TestExecDoesNotHangOnConcurrentClose is the regression test for the
// Exec/stop race, on both stop paths: Exec used to check closed and then
// block forever sending on the jobs channel if the stop drained the workers
// in between. Now it must return ErrClosed (or complete normally if a worker
// picked it up first), and the stop must join the agents.
func TestExecDoesNotHangOnConcurrentClose(t *testing.T) {
	for _, stop := range []struct {
		name string
		fn   func(*Engine) error
	}{
		{"Close", (*Engine).Close},
		{"SimulateCrash", func(e *Engine) error { e.SimulateCrash(); return nil }},
	} {
		t.Run(stop.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := Open(Config{Agents: 1})
			schema := record.MustSchema(record.Column{Name: "id", Type: record.TypeInt})
			if err := e.CreateTable("t", schema, []string{"id"}); err != nil {
				t.Fatal(err)
			}

			// Occupy the single worker so further Execs block on the jobs channel.
			blockerStarted := make(chan struct{})
			release := make(chan struct{})
			blockerDone := make(chan error, 1)
			go func() {
				blockerDone <- e.Exec(func(tx *Tx) error {
					close(blockerStarted)
					<-release
					return nil
				})
			}()
			<-blockerStarted

			// This Exec cannot be picked up: the only worker is busy.
			stuck := make(chan error, 1)
			go func() {
				stuck <- e.Exec(func(tx *Tx) error { return nil })
			}()

			// Stop concurrently, then release the blocker so the worker can drain.
			stopDone := make(chan error, 1)
			go func() { stopDone <- stop.fn(e) }()
			time.Sleep(10 * time.Millisecond)
			close(release)

			for name, ch := range map[string]chan error{"stuck Exec": stuck, "blocker": blockerDone, stop.name: stopDone} {
				select {
				case err := <-ch:
					if name == "stuck Exec" && err != nil && !errors.Is(err, ErrClosed) {
						t.Fatalf("%s returned unexpected error: %v", name, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s did not return within 5s (Exec/%s race)", name, stop.name)
				}
			}
			// Exec on the stopped engine fails fast.
			if err := e.Exec(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
				t.Fatalf("Exec after %s = %v, want ErrClosed", stop.name, err)
			}
			// The stop joined the agent; the WAL flusher exits on its own.
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines 1s after %s, %d before Open", runtime.NumGoroutine(), stop.name, before)
				}
			}
		})
	}
}

// TestAsyncCommitFreesTheAgent pins what AsyncCommit buys: the agent is
// freed at pre-commit. On a single agent with a slow force, a read-only Exec
// queued behind an ExecAsync write runs at once with AsyncCommit, and waits
// out the writer's force without it.
func TestAsyncCommitFreesTheAgent(t *testing.T) {
	const delay = 200 * time.Millisecond
	for _, async := range []bool{true, false} {
		t.Run(map[bool]string{true: "async", false: "sync"}[async], func(t *testing.T) {
			e := openELREngine(t, Config{
				Agents:           1,
				EarlyLockRelease: true,
				AsyncCommit:      async,
				LogFlushDelay:    delay,
			})
			started := make(chan struct{})
			var once sync.Once
			writer := e.ExecAsync(func(tx *Tx) error {
				once.Do(func() { close(started) })
				return tx.Update("t", []record.Value{record.Int(1)}, func(r record.Row) (record.Row, error) {
					r[1] = record.Int(7)
					return r, nil
				})
			})
			<-started // the one agent holds the write; the read queues behind it

			start := time.Now()
			if err := e.Exec(func(tx *Tx) error {
				_, _, err := tx.Get("t", record.Int(1))
				return err
			}); err != nil {
				t.Fatal(err)
			}
			elapsed := time.Since(start)
			if async && elapsed >= delay/2 {
				t.Errorf("read behind a pre-committed write took %v, want < %v: the agent waited for the force", elapsed, delay/2)
			}
			if !async && elapsed < delay {
				t.Errorf("read behind a write took %v, want >= %v: the agent did not wait for the force", elapsed, delay)
			}
			if err := <-writer; err != nil {
				t.Fatalf("writer: %v", err)
			}
		})
	}
}

// TestCloseResolvesOutstandingFutures closes a durable engine while 16
// pre-committed transactions wait inside a slow force. Close drains the log,
// so every future resolves nil and a reopen finds every row.
func TestCloseResolvesOutstandingFutures(t *testing.T) {
	const n = 16
	dir := t.TempDir()
	e, err := OpenAt(dir, Config{
		Agents:           2,
		EarlyLockRelease: true,
		AsyncCommit:      true,
		LogFlushDelay:    300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := record.MustSchema(record.Column{Name: "id", Type: record.TypeInt})
	if err := e.CreateTable("t", schema, []string{"id"}); err != nil {
		t.Fatal(err)
	}
	// Count pre-commits through the completion hook, which runOnce calls
	// once preCommit has returned.
	var preCommitted atomic.Int64
	hook := func(c TxCompletion) {
		if c.Committed {
			preCommitted.Add(1)
		}
	}
	e.txHook.Store(&hook)
	futures := make([]<-chan error, n)
	for i := range futures {
		id := int64(i + 1)
		futures[i] = e.ExecAsync(func(tx *Tx) error { return tx.Insert("t", record.Row{record.Int(id)}) })
	}
	for deadline := time.Now().Add(5 * time.Second); preCommitted.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d transactions pre-committed after 5s", preCommitted.Load(), n)
		}
	}
	if e.DurableLag() == 0 {
		t.Fatal("no commit left inside the force: the test closes nothing outstanding")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for i, fut := range futures {
		select {
		case err := <-fut:
			if err != nil {
				t.Fatalf("future %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("future %d unresolved 5s after Close", i)
		}
	}

	e, err = OpenAt(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Exec(func(tx *Tx) error {
		for id := int64(1); id <= n; id++ {
			if _, ok, err := tx.Get("t", record.Int(id)); err != nil || !ok {
				t.Errorf("row %d after reopen: found=%v err=%v", id, ok, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncCommitAddsNoGoroutines pins that under AsyncCommit an agent is
// one goroutine: the Exec caller, not a helper goroutine, makes the
// durability wait.
func TestAsyncCommitAddsNoGoroutines(t *testing.T) {
	const agents = 4
	before := runtime.NumGoroutine()
	e := Open(Config{Agents: agents, EarlyLockRelease: true, AsyncCommit: true})
	defer e.Close()
	if got := runtime.NumGoroutine() - before; got > agents {
		t.Fatalf("Open with %d agents under AsyncCommit started %d goroutines, want <= %d", agents, got, agents)
	}
}

// TestAsyncWaitsChargedOnce pins the LogFlush attribution of the waits Exec
// callers make under AsyncCommit: concurrent callers of one agent are
// charged the time that agent has a commit outstanding, once, so LogFlush
// never exceeds the wall time of a single-agent run.
func TestAsyncWaitsChargedOnce(t *testing.T) {
	const n = 16
	e := openELREngine(t, Config{
		Agents:           1,
		EarlyLockRelease: true,
		AsyncCommit:      true,
		LogFlushDelay:    50 * time.Millisecond,
		Profile:          true,
	})
	before := e.Profiler().Aggregate()
	start := time.Now()
	futures := make([]<-chan error, n)
	for i := range futures {
		id := int64(i + 2)
		futures[i] = e.ExecAsync(func(tx *Tx) error { return tx.Insert("t", record.Row{record.Int(id), record.Int(0)}) })
	}
	for i, fut := range futures {
		if err := <-fut; err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	wall := time.Since(start)
	got := e.Profiler().Aggregate().Sub(before).Get(profiler.LogFlush)
	if got == 0 || got > wall {
		t.Fatalf("LogFlush = %v over a %v run of one agent, want in (0, %v]", got, wall, wall)
	}
}
