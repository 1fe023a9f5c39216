package latch

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestMutexBasic(t *testing.T) {
	var m Mutex
	contended, wait := m.Lock()
	if contended {
		t.Fatal("first acquisition must not be contended")
	}
	if wait != 0 {
		t.Fatalf("uncontended acquisition reported wait %v", wait)
	}
	m.Unlock()
}

func TestMutexTryLock(t *testing.T) {
	var m Mutex
	if !m.TryLock() {
		t.Fatal("TryLock on free latch failed")
	}
	if m.TryLock() {
		t.Fatal("TryLock on held latch succeeded")
	}
	m.Unlock()
	if !m.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	m.Unlock()
}

func TestMutexContentionDetected(t *testing.T) {
	var m Mutex
	m.Lock()
	done := make(chan struct{})
	go func() {
		contended, wait := m.Lock()
		if !contended {
			t.Error("second acquisition should be contended")
		}
		if wait <= 0 {
			t.Error("contended acquisition should report nonzero wait")
		}
		m.Unlock()
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	m.Unlock()
	<-done
}

func TestMutexMutualExclusion(t *testing.T) {
	var m Mutex
	var counter int
	var wg sync.WaitGroup
	const goroutines = 16
	const iters = 2000
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d (lost updates => no mutual exclusion)", counter, goroutines*iters)
	}
}

func TestRWLatchReadersShareWritersExclude(t *testing.T) {
	var l RWLatch
	l.RLock()
	// A second reader must not block.
	done := make(chan struct{})
	go func() {
		l.RLock()
		l.RUnlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("second reader blocked behind first reader")
	}
	if l.TryLock() {
		t.Fatal("writer TryLock succeeded while reader holds latch")
	}
	l.RUnlock()
	if !l.TryLock() {
		t.Fatal("writer TryLock failed on free latch")
	}
	l.Unlock()
}

func TestRWLatchWriterContention(t *testing.T) {
	var l RWLatch
	l.Lock()
	done := make(chan struct{})
	go func() {
		contended, _ := l.Lock()
		if !contended {
			t.Error("writer behind writer should be contended")
		}
		l.Unlock()
		close(done)
	}()
	time.Sleep(2 * time.Millisecond)
	l.Unlock()
	<-done
}

func TestRWLatchCounterUnderMixedLoad(t *testing.T) {
	var l RWLatch
	var value int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				l.Lock()
				value++
				l.Unlock()
				l.RLock()
				_ = value
				l.RUnlock()
			}
		}()
	}
	wg.Wait()
	if value != 8*500 {
		t.Fatalf("value = %d, want %d", value, 8*500)
	}
}

func TestContentionWindowBasic(t *testing.T) {
	var w ContentionWindow
	if w.Ratio() != 0 {
		t.Fatal("empty window should report ratio 0")
	}
	// Fill with uncontended acquisitions.
	for i := 0; i < WindowSize; i++ {
		w.Record(false)
	}
	if w.Ratio() != 0 {
		t.Fatalf("all-uncontended ratio = %v, want 0", w.Ratio())
	}
	// Now all contended.
	for i := 0; i < WindowSize; i++ {
		w.Record(true)
	}
	if w.Ratio() != 1 {
		t.Fatalf("all-contended ratio = %v, want 1", w.Ratio())
	}
	// Half and half, sliding.
	for i := 0; i < WindowSize/2; i++ {
		w.Record(false)
	}
	if got := w.Ratio(); got != 0.5 {
		t.Fatalf("half-contended ratio = %v, want 0.5", got)
	}
	w.Reset()
	if w.Ratio() != 0 {
		t.Fatal("reset window should report ratio 0")
	}
}

func TestContentionWindowEarlyQuiet(t *testing.T) {
	var w ContentionWindow
	// Fewer than WindowSize/4 samples: ratio must stay 0 even if contended.
	for i := 0; i < WindowSize/4-1; i++ {
		w.Record(true)
	}
	if w.Ratio() != 0 {
		t.Fatalf("ratio with too few samples = %v, want 0", w.Ratio())
	}
	w.Record(true)
	if w.Ratio() != 1 {
		t.Fatalf("ratio once warmed = %v, want 1", w.Ratio())
	}
}

// TestContentionWindowMatchesReference drives the packed-bitmask window with
// random sequences and checks it against a straightforward slice-based
// reference implementation.
func TestContentionWindowMatchesReference(t *testing.T) {
	f := func(pattern []bool) bool {
		var w ContentionWindow
		var ref []bool
		for _, c := range pattern {
			w.Record(c)
			ref = append(ref, c)
			if len(ref) > WindowSize {
				ref = ref[1:]
			}
			ones := 0
			for _, b := range ref {
				if b {
					ones++
				}
			}
			var want float64
			if len(ref) >= WindowSize/4 {
				want = float64(ones) / float64(len(ref))
			}
			if w.Ratio() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMutexUncontended(b *testing.B) {
	var m Mutex
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Lock()
		m.Unlock()
	}
}

func BenchmarkMutexContended(b *testing.B) {
	var m Mutex
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Lock()
			m.Unlock()
		}
	})
}

// TestHotThresholdsMatchRatio holds the integer hot-ness verdict to the float
// one it replaces, for every window state and a spread of thresholds.
func TestHotThresholdsMatchRatio(t *testing.T) {
	for _, threshold := range []float64{0.01, 0.1, 0.25, 0.3, 1.0 / 3, 0.5, 0.75, 1} {
		min := HotThresholds(threshold)
		for fill := 0; fill <= WindowSize; fill++ {
			for ones := 0; ones <= fill; ones++ {
				w := ContentionWindow{fill: uint8(fill), ones: uint8(ones)}
				if got, want := w.Hot(&min), w.Ratio() >= threshold; got != want {
					t.Errorf("threshold %v, %d/%d contended: Hot = %v, Ratio() >= threshold = %v", threshold, ones, fill, got, want)
				}
			}
		}
	}
}
