package main

import (
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4) computed by hand.
	for _, tc := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{42}, 42, 42, 42},
		{nil, 0, 0, 0},
	} {
		q1, med, q3 := quartiles(tc.v)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// The spread -compare judges by: 8.25 - 2.75, against a share of 5.5.
	if s := statOf("", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s.Q3-s.Q1 != 5.5 || s.Value != 5.5 {
		t.Errorf("statOf = %+v, want quartiles 5.5 apart around 5.5", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	thousand := make([]int64, 1000)
	for i := range thousand {
		thousand[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		v    []int64
		p    float64
		want int64
	}{
		{hundred, 0.50, 50}, {hundred, 0.99, 99}, {hundred, 1, 100}, {hundred, 0.001, 1},
		{thousand, 0.999, 999}, {thousand, 0.9991, 1000},
		{[]int64{1, 2, 3, 4}, 0.5, 2}, {[]int64{7}, 0.99, 7}, {nil, 0.5, 0},
	} {
		if got := percentile(tc.v, tc.p); got != tc.want {
			t.Errorf("percentile(n=%d, %v) = %d, want %d", len(tc.v), tc.p, got, tc.want)
		}
	}
}

func TestSpanBufferThinsInsteadOfGrowing(t *testing.T) {
	b := newSpanBuf(40) // room for 8 transactions of 5 spans
	tr := &txTrace{bodyStart: 10, bodyEnd: 20, nOps: 1}
	tr.ops[0] = opSpan{kind: spGet, start: 11, end: 15}
	for id := uint64(0); id < 100; id++ {
		b.add(id, 5, 30, tr)
	}
	if len(b.spans) > 40 || cap(b.spans) != 40 {
		t.Fatalf("buffer grew: len %d cap %d", len(b.spans), cap(b.spans))
	}
	if b.every < 2 {
		t.Fatalf("sampling period %d after overflowing", b.every)
	}
	for i, s := range b.spans {
		if (s.up == 0) != (s.kind == spExec) {
			t.Fatalf("span %d: kind %d with parent distance %d", i, s.kind, s.up)
		}
		if s.up != 0 && b.spans[i-int(s.up)].txn != s.txn {
			t.Fatalf("span %d points at a parent of another transaction", i)
		}
		if s.kind == spExec && s.txn%b.every != 0 {
			t.Fatalf("kept transaction %d with sampling period %d", s.txn, b.every)
		}
	}
	st := summarizeSpans([]*spanBuf{b})
	// body 10..20 minus its one child 11..15.
	if st.p50[spBody] != 6 || st.p50[spGet] != 4 || st.p50[spDispatch] != 5 || st.p50[spCommit] != 10 {
		t.Errorf("self times: body %v get %v dispatch %v commit %v", st.p50[spBody], st.p50[spGet], st.p50[spDispatch], st.p50[spCommit])
	}
}
