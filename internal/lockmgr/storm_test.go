package lockmgr

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A deadlock storm: agents run transactions that each take X on two of k
// records in random order, so every pair of transactions that meets with
// the records the other way round closes a wait-for cycle. A transaction
// yields the processor between its two locks, so the agents overlap however
// few processors there are. Only the public API is used, so the same file
// measures any version of the lock manager.

// stormResult is what a storm's transactions came to.
type stormResult struct {
	commits, victims, timeouts int
	// detect holds, for every victim, how long its Lock call ran before it
	// returned ErrDeadlock.
	detect  []time.Duration
	elapsed time.Duration
}

// runStorm runs xcts transactions over k records on agents agents of m.
// With a shadow table every grant is checked against what the other agents
// hold; a transaction that ends in anything but a commit, ErrDeadlock or
// ErrLockTimeout fails tb.
func runStorm(tb testing.TB, m *Manager, k, agents, xcts int, shadow *shadowTable) stormResult {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		res    stormResult
		issued atomic.Int64
	)
	start := time.Now()
	for g := 0; g < agents; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := m.NewAgent()
			r := rand.New(rand.NewSource(int64(g) + 1))
			var mine stormResult
			for issued.Add(1) <= int64(xcts) {
				i := r.Intn(k)
				j := (i + 1 + r.Intn(k-1)) % k
				ids := []LockID{RecordLock(1, 1, 0, uint32(i)), RecordLock(1, 1, 0, uint32(j))}
				o := m.NewOwner(a, nil)
				var err error
				for n, id := range ids {
					if n > 0 {
						runtime.Gosched()
					}
					t0 := time.Now()
					if err = o.Lock(id, X); err != nil {
						if errors.Is(err, ErrDeadlock) {
							mine.detect = append(mine.detect, time.Since(t0))
						}
						break
					}
					if shadow != nil {
						if other, _, bad := shadow.grant(g, id, X); bad {
							tb.Errorf("agent %d granted X on %v while agent %d holds it", g, id, other)
						}
					}
				}
				if shadow != nil {
					shadow.drop(g, ids)
				}
				o.ReleaseAll()
				switch {
				case err == nil:
					mine.commits++
				case errors.Is(err, ErrDeadlock):
					mine.victims++
				case errors.Is(err, ErrLockTimeout):
					mine.timeouts++
				default:
					tb.Errorf("agent %d: %v", g, err)
				}
			}
			mu.Lock()
			res.commits += mine.commits
			res.victims += mine.victims
			res.timeouts += mine.timeouts
			res.detect = append(res.detect, mine.detect...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	slices.Sort(res.detect)
	return res
}

// detectMillis returns the q-quantile of the victims' detection times in ms.
func (r stormResult) detectMillis(q float64) float64 {
	if len(r.detect) == 0 {
		return 0
	}
	return float64(r.detect[int(q*float64(len(r.detect)-1))]) / float64(time.Millisecond)
}

// BenchmarkDeadlockStorm reports, per cell of k records and agents, how long
// a victim waits before the search finds its cycle, how many transactions
// become victims, the commit rate, and how many waits the lock timeout had
// to end instead of the search.
func BenchmarkDeadlockStorm(b *testing.B) {
	for _, k := range []int{4, 16} {
		for _, agents := range []int{2, 8, 32} {
			b.Run(fmt.Sprintf("K=%d/agents=%d", k, agents), func(b *testing.B) {
				res := runStorm(b, New(Config{}), k, agents, b.N, nil)
				b.ReportMetric(res.detectMillis(0.5), "detect-p50-ms")
				b.ReportMetric(res.detectMillis(0.99), "detect-p99-ms")
				b.ReportMetric(1e3*float64(res.victims)/float64(b.N), "victims/ktxn")
				b.ReportMetric(float64(res.commits)/res.elapsed.Seconds(), "commits/s")
				b.ReportMetric(float64(res.timeouts), "timeouts")
			})
		}
	}
}

// TestDeadlockStorm runs a small storm under the shadow check: every
// transaction commits or is a deadlock victim, the search (not the lock
// timeout) breaks every cycle, and no two agents ever hold X on one record.
// Run it under -race. The timeout is a tenth of the default, so a search
// that misses cycles fails the test in seconds, and still hundreds of
// times what the search needs.
func TestDeadlockStorm(t *testing.T) {
	xcts := 2000
	if testing.Short() {
		xcts = 400
	}
	for _, k := range []int{4, 16} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			shadow := &shadowTable{holders: make(map[LockID]map[int]Mode)}
			res := runStorm(t, New(Config{LockTimeout: time.Second}), k, 8, xcts, shadow)
			if res.commits+res.victims != xcts {
				t.Errorf("%d commits + %d victims != %d transactions (%d timeouts)", res.commits, res.victims, xcts, res.timeouts)
			}
			if res.timeouts != 0 {
				t.Errorf("%d lock waits ended by the timeout, not the search", res.timeouts)
			}
			if k == 4 && res.victims == 0 {
				t.Error("no deadlock victim: the storm did not storm")
			}
			t.Logf("%d commits, %d victims, detect p50 %.2f ms p99 %.2f ms, %v",
				res.commits, res.victims, res.detectMillis(0.5), res.detectMillis(0.99), res.elapsed)
		})
	}
}
