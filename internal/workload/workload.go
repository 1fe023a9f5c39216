// Package workload implements the benchmark driver: closed-loop clients
// submitting transactions drawn from a weighted mix, warm-up handling,
// throughput and latency measurement, and collection of the profiler and
// lock-manager statistics needed to regenerate the paper's figures.
package workload

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"slidb/internal/core"
	"slidb/internal/lockmgr"
	"slidb/internal/profiler"
)

// TxFunc is one transaction body. It returns core.Abort (or an error
// wrapping it) for expected, input-dependent failures — e.g. the NDBB
// transactions that fail on invalid input — which the driver counts
// separately from unexpected errors.
type TxFunc = func(*core.Tx) error

// Generator produces the next transaction to run. Implementations must be
// safe for concurrent use; Next receives a per-client random source.
type Generator interface {
	// Next returns the transaction's name and body.
	Next(rng *rand.Rand) (string, TxFunc)
}

// MixEntry is one transaction type with its relative weight.
type MixEntry struct {
	// Name identifies the transaction type in reports.
	Name string
	// Weight is the relative frequency (any positive scale).
	Weight float64
	// Make builds one instance of the transaction with random parameters.
	Make func(rng *rand.Rand) TxFunc
}

// Mix is a weighted set of transaction types; it implements Generator.
type Mix []MixEntry

// Next picks an entry proportionally to the weights.
func (m Mix) Next(rng *rand.Rand) (string, TxFunc) {
	total := 0.0
	for _, e := range m {
		total += e.Weight
	}
	r := rng.Float64() * total
	for _, e := range m {
		if r < e.Weight {
			return e.Name, e.Make(rng)
		}
		r -= e.Weight
	}
	last := m[len(m)-1]
	return last.Name, last.Make(rng)
}

// WithAbortRate wraps gen so that the given fraction of transactions perform
// their full body and then return core.Abort, forcing a complete rollback of
// every modification they made. It is the driver for high-abort-rate
// experiments: the aborted transactions pay the whole forward cost (locks,
// heap and index mutations, log appends) plus the undo and CLR-logging cost
// of the abort path, exactly like a conflict-victim retry would. A rate <= 0
// returns gen unchanged; rates are clamped to 1.
func WithAbortRate(gen Generator, rate float64) Generator {
	if rate <= 0 {
		return gen
	}
	if rate > 1 {
		rate = 1
	}
	return abortingGenerator{gen: gen, rate: rate}
}

type abortingGenerator struct {
	gen  Generator
	rate float64
}

func (g abortingGenerator) Next(rng *rand.Rand) (string, TxFunc) {
	name, fn := g.gen.Next(rng)
	if rng.Float64() >= g.rate {
		return name, fn
	}
	return name, func(tx *core.Tx) error {
		if err := fn(tx); err != nil {
			return err
		}
		return core.Abort
	}
}

// Options controls a benchmark run.
type Options struct {
	// Clients is the number of closed-loop client goroutines. If zero it
	// defaults to the engine's agent count (or 1).
	Clients int
	// Duration is the measured interval (after warm-up).
	Duration time.Duration
	// Warmup is run before measurement starts and is not counted.
	Warmup time.Duration
	// Seed seeds the per-client random sources (clients use Seed+clientID).
	Seed int64
}

// Result is the outcome of one benchmark run.
type Result struct {
	// Duration is the measured wall-clock interval.
	Duration time.Duration
	// Committed counts transactions that committed successfully during the
	// measured interval.
	Committed uint64
	// Failed counts transactions that completed with an expected,
	// input-dependent failure (core.Abort) and were rolled back — e.g. the
	// NDBB transactions that fail on invalid input or TPC-C New Order with an
	// invalid item. They count towards throughput, as in the paper.
	Failed uint64
	// Errors counts transactions that returned an unexpected error.
	Errors uint64
	// Throughput is completed (committed + failed) transactions per second.
	Throughput float64
	// AvgLatency is the mean client-observed latency of completed
	// transactions.
	AvgLatency time.Duration
	// Breakdown is the profiler delta over the measured interval (empty if
	// profiling is disabled).
	Breakdown profiler.Breakdown
	// LockStats is the lock-manager counter delta over the measured interval.
	LockStats lockmgr.StatsSnapshot
	// ELRAborts is the delta of the engine's ELRAborts over the measured
	// interval.
	ELRAborts uint64
}

// Run drives the engine with the generator according to opts and returns the
// measured result.
func Run(e *core.Engine, gen Generator, opts Options) Result {
	clients := opts.Clients
	if clients <= 0 {
		clients = e.Concurrency()
		if clients <= 0 {
			clients = 1
		}
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}

	var (
		measuring  atomic.Bool
		stop       atomic.Bool
		committed  atomic.Uint64
		failed     atomic.Uint64
		errCount   atomic.Uint64
		latencySum atomic.Int64
	)

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(id)*104729 + 1))
			for !stop.Load() {
				_, fn := gen.Next(rng)
				start := time.Now()
				err := e.Exec(fn)
				elapsed := time.Since(start)
				if !measuring.Load() {
					continue
				}
				switch {
				case err == nil:
					committed.Add(1)
				case errors.Is(err, core.Abort):
					// Expected, input-dependent failure: the transaction was
					// rolled back; it still counts as a completed request.
					failed.Add(1)
				default:
					errCount.Add(1)
					continue
				}
				latencySum.Add(int64(elapsed))
			}
		}(c)
	}

	if opts.Warmup > 0 {
		time.Sleep(opts.Warmup)
	}
	// Every engine counter only goes up, so the result is the difference of
	// snapshots taken at the two ends of the measured interval.
	profBefore, lockBefore, elrBefore := e.Profiler().Aggregate(), e.LockStats(), e.ELRAborts()
	measuring.Store(true)
	start := time.Now()
	time.Sleep(opts.Duration)
	measuring.Store(false)
	elapsed := time.Since(start)
	profAfter, lockAfter, elrAfter := e.Profiler().Aggregate(), e.LockStats(), e.ELRAborts()
	stop.Store(true)
	wg.Wait()

	completed := committed.Load() + failed.Load()
	res := Result{
		Duration:   elapsed,
		Committed:  committed.Load(),
		Failed:     failed.Load(),
		Errors:     errCount.Load(),
		Breakdown:  profAfter.Sub(profBefore),
		LockStats:  lockAfter.Diff(lockBefore),
		ELRAborts:  elrAfter - elrBefore,
		Throughput: float64(completed) / elapsed.Seconds(),
	}
	if completed > 0 {
		res.AvgLatency = time.Duration(latencySum.Load() / int64(completed))
	}
	return res
}

// Completed returns the number of transactions that finished (committed or
// failed in the expected, input-dependent way) during measurement.
func (r Result) Completed() uint64 { return r.Committed + r.Failed }

// FailureRate returns the fraction of completed transactions that reported
// an expected application-level failure (the paper's per-transaction failure
// rates, e.g. 76.1% for GET_NEW_DESTINATION).
func (r Result) FailureRate() float64 {
	if r.Completed() == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Completed())
}
