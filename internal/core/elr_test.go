package core

import (
	"errors"
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
// long group-commit window, a writer's locks are released at commit-record
// append, so a reader sees the new value while the writer's durable ack is
// still pending. Without ELR the reader would block behind the writer's X
// lock for the whole window.
func TestELRReaderObservesPreCommittedData(t *testing.T) {
	e := openELREngine(t, Config{
		Agents:            2,
		EarlyLockRelease:  true,
		AsyncCommit:       true,
		GroupCommitWindow: 300 * time.Millisecond,
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

	// The writer's commit must still be inside the group-commit window: its
	// durable ack is pending even though its data is already visible.
	if readElapsed < 250*time.Millisecond {
		select {
		case err := <-writerDone:
			t.Fatalf("writer durable ack resolved before the group-commit window elapsed (err=%v)", err)
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
		Agents:            4,
		EarlyLockRelease:  true,
		AsyncCommit:       true,
		GroupCommitWindow: 200 * time.Microsecond,
		Profile:           true,
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
// Exec/Close race: Exec used to check closed and then block forever sending
// on the jobs channel if Close drained the workers in between. Now it must
// return ErrClosed (or complete normally if a worker picked it up first).
func TestExecDoesNotHangOnConcurrentClose(t *testing.T) {
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

	// Close concurrently, then release the blocker so the worker can drain.
	closeDone := make(chan error, 1)
	go func() { closeDone <- e.Close() }()
	time.Sleep(10 * time.Millisecond)
	close(release)

	for name, ch := range map[string]chan error{"stuck Exec": stuck, "blocker": blockerDone, "Close": closeDone} {
		select {
		case err := <-ch:
			if name == "stuck Exec" && err != nil && !errors.Is(err, ErrClosed) {
				t.Fatalf("%s returned unexpected error: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return within 5s (Exec/Close race)", name)
		}
	}
	// Exec on the closed engine fails fast.
	if err := e.Exec(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Exec after Close = %v, want ErrClosed", err)
	}
}
