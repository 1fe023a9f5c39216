package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"slidb/internal/record"
)

func key(i int) string { return record.EncodeKey(record.Int(int64(i))) }

func TestInsertGetBasic(t *testing.T) {
	tr := New[int]()
	if _, ok := tr.Get(key(1)); ok {
		t.Fatal("empty tree claims to contain a key")
	}
	if !tr.Insert(key(1), 100) {
		t.Fatal("first insert should report new key")
	}
	if tr.Insert(key(1), 200) {
		t.Fatal("second insert of same key should report replacement")
	}
	v, ok := tr.Get(key(1))
	if !ok || v != 200 {
		t.Fatalf("Get = %d,%v want 200,true", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestInsertIfAbsent(t *testing.T) {
	tr := New[string]()
	if !tr.InsertIfAbsent("a", "first") {
		t.Fatal("InsertIfAbsent on missing key failed")
	}
	if tr.InsertIfAbsent("a", "second") {
		t.Fatal("InsertIfAbsent overwrote an existing key")
	}
	v, _ := tr.Get("a")
	if v != "first" {
		t.Fatalf("value = %q, want first", v)
	}
}

func TestManyInsertsAndSplits(t *testing.T) {
	tr := New[int]()
	const n = 10000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		tr.Insert(key(i), i*10)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(key(i))
		if !ok || v != i*10 {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	// Full ascending scan must return keys in order.
	prev := ""
	count := 0
	tr.Ascend(func(k string, v int) bool {
		if k <= prev && prev != "" {
			t.Fatalf("scan out of order at %q", k)
		}
		prev = k
		count++
		return true
	})
	if count != n {
		t.Fatalf("Ascend visited %d keys, want %d", count, n)
	}
}

func TestDelete(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 1000; i++ {
		tr.Insert(key(i), i)
	}
	for i := 0; i < 1000; i += 2 {
		if !tr.Delete(key(i)) {
			t.Fatalf("Delete(%d) reported missing", i)
		}
	}
	if tr.Delete(key(0)) {
		t.Fatal("double delete reported success")
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d, want 500", tr.Len())
	}
	for i := 0; i < 1000; i++ {
		_, ok := tr.Get(key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%v, want %v", i, ok, want)
		}
	}
	// Deleted keys can be reinserted.
	if !tr.Insert(key(0), 42) {
		t.Fatal("reinsert after delete failed")
	}
}

func TestAscendRange(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 100; i++ {
		tr.Insert(key(i), i)
	}
	var got []int
	tr.AscendRange(key(10), key(20), func(k string, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Fatalf("range [10,20] = %v", got)
	}
	// Empty hi scans to the end.
	got = got[:0]
	tr.AscendRange(key(95), "", func(k string, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 5 {
		t.Fatalf("open-ended range returned %v", got)
	}
	// Early termination.
	count := 0
	tr.AscendRange(key(0), "", func(string, int) bool { count++; return count < 7 })
	if count != 7 {
		t.Fatalf("early termination visited %d", count)
	}
	// Empty range.
	count = 0
	tr.AscendRange(key(200), key(300), func(string, int) bool { count++; return true })
	if count != 0 {
		t.Fatal("out-of-bounds range returned keys")
	}
}

// TestAgainstReferenceMap drives the tree with random operations and checks
// it against a plain map + sorted-slice reference.
func TestAgainstReferenceMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New[int]()
		ref := map[string]int{}
		for op := 0; op < 2000; op++ {
			k := key(rng.Intn(500))
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Int()
				tr.Insert(k, v)
				ref[k] = v
			case 2:
				got := tr.Delete(k)
				_, want := ref[k]
				if got != want {
					return false
				}
				delete(ref, k)
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, want := range ref {
			got, ok := tr.Get(k)
			if !ok || got != want {
				return false
			}
		}
		// Scan order must match sorted reference keys.
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		i := 0
		okOrder := true
		tr.Ascend(func(k string, v int) bool {
			if i >= len(keys) || keys[i] != k {
				okOrder = false
				return false
			}
			i++
			return true
		})
		return okOrder && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 1000; i++ {
		tr.Insert(key(i), i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tr.Insert(key(1000+w*2000+i), i)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if v, ok := tr.Get(key(i % 1000)); !ok || v != i%1000 {
					t.Errorf("lost key %d", i%1000)
					return
				}
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 1000+4*2000 {
		t.Fatalf("Len = %d, want %d", tr.Len(), 1000+4*2000)
	}
}

func TestStringKeysWork(t *testing.T) {
	tr := New[int]()
	names := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	for i, n := range names {
		tr.Insert(record.EncodeKey(record.String(n)), i)
	}
	var got []string
	tr.Ascend(func(k string, v int) bool {
		got = append(got, names[v])
		return true
	})
	want := fmt.Sprint([]string{"alpha", "bravo", "charlie", "delta", "echo"})
	if fmt.Sprint(got) != want {
		t.Fatalf("scan order %v, want %v", got, want)
	}
}
