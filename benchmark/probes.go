package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"time"

	"slidb"
	"slidb/internal/btree"
	"slidb/internal/buffer"
	"slidb/internal/heap"
	"slidb/internal/lockmgr"
	"slidb/internal/record"
	"slidb/internal/wal"
)

// A probe builds one layer on its own with a zero-value configuration, times
// a fixed number of calls into its public functions, and reports the median
// ns/op of probeRepeats repeats. Probes know nothing about the workloads; they
// say what a layer costs when nothing else is in the way, which is what a
// change to that layer should move first.
const probeRepeats = 5

// probe times run(n) probeRepeats times and returns the median ns per op.
// prepare (may be nil) rebuilds state before each repeat, untimed.
func probe(n int, prepare func() error, run func(n int) error) (float64, error) {
	var perOp []float64
	for i := 0; i < probeRepeats; i++ {
		if prepare != nil {
			if err := prepare(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		if err := run(n); err != nil {
			return 0, err
		}
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(perOp), nil
}

// probeScale multiplies every probe's operation count; the tests shrink it.
type probeScale float64

func (s probeScale) n(base int) int { return max(1, int(float64(base)*float64(s))) }

// runProbes returns every probe metric by name. dir is a directory on the
// -datadir file system for the one probe that needs a real fsync.
func runProbes(dir string, s probeScale) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, p := range []struct {
		name string
		fn   func(dir string, s probeScale) (map[string]float64, error)
	}{
		{"lockmgr", probeLockmgr}, {"wal", probeWAL}, {"core", probeCore}, {"heap", probeHeap},
		{"btree", probeBtree}, {"record", probeRecord}, {"buffer", probeBuffer},
	} {
		m, err := p.fn(dir, s)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", p.name, err)
		}
		for k, v := range m {
			out[k] = v
		}
	}
	return out, nil
}

// lockHierarchy takes db -> table -> page -> record (IS, IS, IS, S): asking
// for the record lock makes the manager take the intention locks above it.
func lockHierarchy(m *lockmgr.Manager, ag *lockmgr.Agent, i int) error {
	o := m.NewOwner(ag, nil)
	err := o.Lock(lockmgr.RecordLock(1, 1, uint64(i&7), uint32(i&63)), lockmgr.S)
	o.ReleaseAll()
	return err
}

func probeLockmgr(_ string, s probeScale) (map[string]float64, error) {
	loop := func(m *lockmgr.Manager) func(n int) error {
		ag := m.NewAgent()
		return func(n int) error {
			for i := 0; i < n; i++ {
				if err := lockHierarchy(m, ag, i); err != nil {
					return err
				}
			}
			return nil
		}
	}
	plain, err := probe(s.n(20000), nil, loop(lockmgr.New(lockmgr.Config{})))
	if err != nil {
		return nil, err
	}
	// SLI on, the three upper heads hot: each owner on the agent reclaims what
	// the previous one passed on, so only the record lock goes through the
	// lock table.
	m := lockmgr.New(lockmgr.Config{SLI: true})
	m.ForceHot(lockmgr.DatabaseLock(1))
	m.ForceHot(lockmgr.TableLock(1, 1))
	for pg := uint64(0); pg < 8; pg++ {
		m.ForceHot(lockmgr.PageLock(1, 1, pg))
	}
	n := s.n(20000)
	sli, err := probe(n, nil, loop(m))
	if err != nil {
		return nil, err
	}
	if st := m.Stats().Snapshot(); st.SLIReclaimed < uint64(probeRepeats*n) {
		return nil, fmt.Errorf("SLI probe reclaimed %d locks in %d owners: the inheritance path did not run", st.SLIReclaimed, probeRepeats*n)
	}
	return map[string]float64{"lockmgr.acquire_release_ns": plain, "lockmgr.sli_reclaim_ns": sli}, nil
}

// walRecord is an update record with a 128-byte payload.
func walRecord() wal.Record {
	return wal.Record{Type: wal.RecUpdate, XID: 1, Table: 1, Page: 1, Slot: 1, Before: make([]byte, 64), After: make([]byte, 64)}
}

// appendRounds appends n records from `appenders` goroutines. Each round uses
// a fresh log and stays below its buffer size, so what is timed is
// reserve/fill/publish and never a drain.
func appendRounds(n, appenders int) (time.Duration, error) {
	const perRound = 16000 // x ~160 B stays under the default 4 MiB buffer
	rec := walRecord()
	var total time.Duration
	for done := 0; done < n; done += perRound {
		l := wal.New(wal.Config{})
		each := min(perRound, n-done) / appenders
		errs := make([]error, appenders)
		var wg sync.WaitGroup
		t0 := time.Now()
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if _, err := l.Append(rec); err != nil {
						errs[a] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		total += time.Since(t0)
		if err := l.Close(); err != nil {
			return 0, err
		}
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
	}
	return total, nil
}

func probeWAL(dir string, s probeScale) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, c := range []struct {
		name      string
		appenders int
	}{{"wal.append_ns", 1}, {"wal.append_2p_ns", 2}} {
		var perOp []float64
		n := s.n(64000)
		for i := 0; i < probeRepeats; i++ {
			d, err := appendRounds(n, c.appenders)
			if err != nil {
				return nil, err
			}
			perOp = append(perOp, float64(d.Nanoseconds())/float64(n))
		}
		out[c.name] = median(perOp)
	}
	// One commit record, one Flush: a whole group-commit cycle (hand-off to
	// the flusher, write, fsync, ack) with nothing to batch.
	segs, err := wal.OpenSegments(filepath.Join(dir, "probe-wal"), 0, false)
	if err != nil {
		return nil, err
	}
	l := wal.New(wal.Config{Durable: segs})
	ns, err := probe(s.n(100), nil, func(n int) error {
		for i := 0; i < n; i++ {
			lsn, err := l.Append(wal.Record{Type: wal.RecCommit, XID: uint64(i + 1)})
			if err != nil {
				return err
			}
			if err := l.Flush(lsn); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if cerr := segs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out["wal.commit_flush_us"] = ns / 1e3
	return out, nil
}

func probeCore(_ string, s probeScale) (map[string]float64, error) {
	db := slidb.Open(engineConfig(false))
	defer db.Close()
	empty := func(*slidb.Tx) error { return nil }
	ns, err := probe(s.n(20000), nil, func(n int) error {
		for i := 0; i < n; i++ {
			if err := db.Exec(empty); err != nil {
				return err
			}
		}
		return nil
	})
	return map[string]float64{"core.exec_empty_us": ns / 1e3}, err
}

func probeHeap(_ string, s probeScale) (map[string]float64, error) {
	n := s.n(50000) // x 100 B = 5 MB, well inside the default 32 MiB pool
	rec := make([]byte, 100)
	var f *heap.File
	var rids []heap.RID
	fresh := func() error {
		f = heap.NewFile(1, buffer.NewPool(buffer.NewMemStore(), buffer.Config{}))
		rids = rids[:0]
		return nil
	}
	insert, err := probe(n, fresh, func(n int) error {
		for i := 0; i < n; i++ {
			rid, err := f.Insert(nil, rec)
			if err != nil {
				return err
			}
			rids = append(rids, rid)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(1, 1))
	get, err := probe(n, nil, func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := f.Get(nil, rids[rng.IntN(len(rids))]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	update, err := probe(n, nil, func(n int) error {
		for i := 0; i < n; i++ {
			if err := f.Update(nil, rids[rng.IntN(len(rids))], rec); err != nil {
				return err
			}
		}
		return nil
	})
	return map[string]float64{"heap.insert_ns": insert, "heap.get_ns": get, "heap.update_ns": update}, err
}

func probeBtree(_ string, s probeScale) (map[string]float64, error) {
	n := s.n(100000)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = record.EncodeKey(record.Int(int64(i)))
	}
	rng := rand.New(rand.NewPCG(2, 2))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	var t *btree.Tree[heap.RID]
	insert, err := probe(n, func() error { t = btree.New[heap.RID](); return nil }, func(n int) error {
		for i := 0; i < n; i++ {
			t.Insert(keys[i], heap.RID{Page: uint64(i)})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	get, err := probe(n, nil, func(n int) error {
		for i := 0; i < n; i++ {
			if _, ok := t.Get(keys[rng.IntN(n)]); !ok {
				return fmt.Errorf("key missing from tree")
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	scans := max(1, n/100)
	scan, err := probe(scans, nil, func(scans int) error {
		for i := 0; i < scans; i++ {
			seen := 0
			t.AscendRange(keys[rng.IntN(n)], "", func(string, heap.RID) bool { seen++; return seen < 100 })
		}
		return nil
	})
	return map[string]float64{"btree.insert_ns": insert, "btree.get_ns": get, "btree.scan100_us": scan / 1e3}, err
}

func probeRecord(_ string, s probeScale) (map[string]float64, error) {
	n := s.n(50000)
	row := subscriberRow(12345)
	data, err := subscriberSchema.Encode(row)
	if err != nil {
		return nil, err
	}
	encode, err := probe(n, nil, func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := subscriberSchema.Encode(row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	decode, err := probe(n, nil, func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := subscriberSchema.Decode(data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var sink int
	key, err := probe(n, nil, func(n int) error {
		for i := 0; i < n; i++ {
			sink += len(record.EncodeKey(record.Int(int64(i)), record.Int(3)))
		}
		return nil
	})
	if sink == 0 {
		return nil, fmt.Errorf("EncodeKey returned empty keys")
	}
	return map[string]float64{"record.encode_ns": encode, "record.decode_ns": decode, "record.encodekey_ns": key}, err
}

func probeBuffer(_ string, s probeScale) (map[string]float64, error) {
	store := buffer.NewMemStore()
	pool := buffer.NewPool(store, buffer.Config{})
	// Twice the pool's pages, all present in the store, visited in order: once
	// round the clock hand every fetch evicts and reloads.
	pages := 2 * pool.Capacity()
	f, err := pool.Fetch(nil, buffer.PageID{Table: 1, Page: 0})
	if err != nil {
		return nil, err
	}
	img := append([]byte(nil), f.Page().Bytes()...)
	pool.Unpin(f, false)
	for pg := 0; pg < pages; pg++ {
		if err := store.Write(buffer.PageID{Table: 1, Page: uint64(pg)}, img); err != nil {
			return nil, err
		}
	}
	next := 1 // page 0 is still resident from taking the image
	fetch := func(span int) func(n int) error {
		return func(n int) error {
			for i := 0; i < n; i++ {
				f, err := pool.Fetch(nil, buffer.PageID{Table: 1, Page: uint64(next % span)})
				if err != nil {
					return err
				}
				pool.Unpin(f, false)
				next++
			}
			return nil
		}
	}
	before := pool.Stats()
	miss, err := probe(s.n(20000), nil, fetch(pages))
	if err != nil {
		return nil, err
	}
	if d := pool.Stats(); d.Hits != before.Hits {
		return nil, fmt.Errorf("miss probe hit the pool %d times", d.Hits-before.Hits)
	}
	resident := 256
	if err := fetch(resident)(resident); err != nil { // bring the hit set in
		return nil, err
	}
	hit, err := probe(s.n(200000), nil, fetch(resident))
	return map[string]float64{"buffer.fetch_hit_ns": hit, "buffer.fetch_miss_ns": miss}, err
}
