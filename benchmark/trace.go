package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"time"

	"slidb"
)

// Spans are recorded from the benchmark's side of the public API only: the
// root covers one Exec/ExecAsync call until its outcome is known, and its
// children split that time at the two instants the API lets a caller see —
// the body's first instruction and the body's return.
const (
	spExec     = iota // call -> outcome (return or future resolved)
	spDispatch        // call -> body's first instruction: queue + agent hand-off
	spBody            // body's first instruction -> body return
	spCommit          // body return -> outcome: pre-commit, lock release, log force, ack
	spGet             // children of body, one per Tx call
	spUpdate
	spInsert
	spScan
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"exec", "dispatch", "body", "commit", "tx.get", "tx.update", "tx.insert", "tx.scan"}

// timeBase anchors every span and latency sample to one monotonic clock.
var timeBase = time.Now()

func nowNS() int64 { return int64(time.Since(timeBase)) }

// maxOpSpans bounds the Tx-call spans kept for one transaction; a TPC-C
// NewOrder with 15 lines makes 52.
const maxOpSpans = 64

type opSpan struct {
	kind       uint8
	start, end int64
}

// txTrace is the per-session scratch the body writes while it runs on an
// agent goroutine. The Exec round trip orders those writes before the client
// reads them, so it needs no lock.
type txTrace struct {
	bodyStart, bodyEnd int64
	attempts           int // >1 when the engine re-ran the body after a deadlock
	nOps               int
	ops                [maxOpSpans]opSpan
}

func (t *txTrace) reset() { t.bodyStart, t.bodyEnd, t.attempts, t.nOps = 0, 0, 0, 0 }

// begin marks the body's first instruction. A deadlock retry keeps the first
// start (so dispatch stays the hand-off time) and drops the failed attempt's
// operation spans.
func (t *txTrace) begin() {
	t.attempts++
	if t.attempts == 1 {
		t.bodyStart = nowNS()
	}
	t.nOps = 0
}

func (t *txTrace) op(kind uint8, start int64) {
	if t.nOps < maxOpSpans {
		t.ops[t.nOps] = opSpan{kind: kind, start: start, end: nowNS()}
		t.nOps++
	}
}

// txn is what a transaction body sees: the engine's Tx, with each call
// wrapped in a span when the run is traced (tr == nil otherwise).
type txn struct {
	tx *slidb.Tx
	tr *txTrace
}

func (t txn) get(table string, key ...slidb.Value) (slidb.Row, bool, error) {
	if t.tr == nil {
		return t.tx.Get(table, key...)
	}
	s := nowNS()
	row, ok, err := t.tx.Get(table, key...)
	t.tr.op(spGet, s)
	return row, ok, err
}

func (t txn) update(table string, key []slidb.Value, mutate func(slidb.Row) (slidb.Row, error)) error {
	if t.tr == nil {
		return t.tx.Update(table, key, mutate)
	}
	s := nowNS()
	err := t.tx.Update(table, key, mutate)
	t.tr.op(spUpdate, s)
	return err
}

func (t txn) insert(table string, row slidb.Row) error {
	if t.tr == nil {
		return t.tx.Insert(table, row)
	}
	s := nowNS()
	err := t.tx.Insert(table, row)
	t.tr.op(spInsert, s)
	return err
}

func (t txn) scanRange(table string, lo, hi []slidb.Value, fn func(slidb.Row) bool) error {
	if t.tr == nil {
		return t.tx.ScanRange(table, lo, hi, fn)
	}
	s := nowNS()
	err := t.tx.ScanRange(table, lo, hi, fn)
	t.tr.op(spScan, s)
	return err
}

// span is one recorded interval. Spans of one transaction are contiguous in
// their buffer, root first; up is the distance back to the parent (0 for the
// root), which keeps a group relocatable when the buffer is thinned.
type span struct {
	txn        uint64
	start, end int64
	kind       uint8
	up         uint8
}

// spanBuf is one client's preallocated span store. When it fills it keeps
// every second transaction it holds and from then on records one transaction
// in every `every`, so a long run degrades to sampling and never allocates.
type spanBuf struct {
	spans []span
	every uint64
	seen  uint64
}

func newSpanBuf(capacity int) *spanBuf {
	return &spanBuf{spans: make([]span, 0, capacity), every: 1}
}

func (b *spanBuf) add(id uint64, call, done int64, tr *txTrace) {
	if tr.bodyStart == 0 {
		return // the body never ran (engine closed): nothing to attribute
	}
	b.seen++
	if (b.seen-1)%b.every != 0 {
		return
	}
	need := 4 + tr.nOps
	for len(b.spans)+need > cap(b.spans) {
		if !b.thin() {
			return
		}
		if (b.seen-1)%b.every != 0 {
			return
		}
	}
	b.spans = append(b.spans,
		span{txn: id, start: call, end: done, kind: spExec},
		span{txn: id, start: call, end: tr.bodyStart, kind: spDispatch, up: 1},
		span{txn: id, start: tr.bodyStart, end: tr.bodyEnd, kind: spBody, up: 2})
	for i := 0; i < tr.nOps; i++ {
		o := &tr.ops[i]
		b.spans = append(b.spans, span{txn: id, start: o.start, end: o.end, kind: o.kind, up: uint8(1 + i)})
	}
	b.spans = append(b.spans, span{txn: id, start: tr.bodyEnd, end: done, kind: spCommit, up: uint8(3 + tr.nOps)})
}

// thin drops every second transaction and doubles the sampling period. It
// reports false when nothing could be freed.
func (b *spanBuf) thin() bool {
	out, group, before := 0, 0, len(b.spans)
	for i := 0; i < len(b.spans); {
		j := i + 1
		for j < len(b.spans) && b.spans[j].up != 0 {
			j++
		}
		if group%2 == 0 {
			out += copy(b.spans[out:], b.spans[i:j])
		}
		group++
		i = j
	}
	b.spans = b.spans[:out]
	b.every *= 2
	return out < before
}

// spanStats folds the clients' buffers into the median duration of each span
// kind; the body's figure is its self time (duration minus its children).
type spanStats struct {
	p50   [numSpanKinds]float64 // ns
	count [numSpanKinds]int
	every uint64
}

func summarizeSpans(bufs []*spanBuf) spanStats {
	var durs [numSpanKinds][]int64
	st := spanStats{every: 1}
	for _, b := range bufs {
		if b.every > st.every {
			st.every = b.every
		}
		body := -1
		for i := range b.spans {
			s := &b.spans[i]
			d := s.end - s.start
			switch {
			case s.kind == spBody:
				body = len(durs[spBody])
				durs[spBody] = append(durs[spBody], d)
			case s.kind >= spGet:
				durs[s.kind] = append(durs[s.kind], d)
				if body >= 0 {
					durs[spBody][body] -= d
				}
			default:
				durs[s.kind] = append(durs[s.kind], d)
			}
		}
	}
	for k := range durs {
		slices.Sort(durs[k])
		st.count[k] = len(durs[k])
		st.p50[k] = float64(percentile(durs[k], 0.5))
	}
	return st
}

// writeSpans writes the buffers as JSON lines: a header line, then one span
// per line with the identifiers a reader needs to rebuild each tree.
func writeSpans(path, workload string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	every := uint64(1)
	for _, b := range bufs {
		every = max(every, b.every)
	}
	fmt.Fprintf(w, `{"workload":%q,"clients":%d,"sample_every":%d,"time_unit":"ns"}`+"\n", workload, len(bufs), every)
	for c, b := range bufs {
		for i := range b.spans {
			s := &b.spans[i]
			parent := "null"
			if s.up != 0 {
				parent = fmt.Sprintf(`"%d:%d"`, c, i-int(s.up))
			}
			fmt.Fprintf(w, `{"id":"%d:%d","parent":%s,"txn":%d,"name":%q,"start":%d,"end":%d}`+"\n",
				c, i, parent, s.txn, spanNames[s.kind], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace file: %w", err)
	}
	return f.Close()
}
