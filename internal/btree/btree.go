// Package btree implements an in-memory B+tree keyed by memcomparable
// strings (see record.EncodeKey). It backs the engine's primary and
// secondary indexes, mapping keys to record identifiers.
//
// Concurrency: the tree is protected by a single reader-writer latch.
// Lookups and range scans share the latch; inserts and deletes take it
// exclusively. This is deliberately coarser than a latch-coupled B+tree —
// the paper's contention story is about the lock manager, and index latch
// hold times here are sub-microsecond.
package btree

import (
	"slidb/internal/latch"
)

// degree is the maximum number of children of an internal node (and the
// maximum number of keys in a leaf is degree-1 before it splits).
const degree = 64

// Tree is a B+tree from string keys to values of type V.
type Tree[V any] struct {
	latch latch.RWLatch
	root  node[V]
	size  int
}

type node[V any] interface {
	// insert returns (newRight, splitKey, grew) when the node split.
	insert(key string, val V, replace bool) (node[V], string, bool, bool)
	// get returns the value for key.
	get(key string) (V, bool)
	// del removes key, returning whether it was present.
	del(key string) bool
	// firstLeaf returns the leftmost leaf under the node.
	firstLeaf() *leaf[V]
	// findLeaf returns the leaf that would contain key.
	findLeaf(key string) *leaf[V]
}

type leaf[V any] struct {
	keys []string
	vals []V
	next *leaf[V]
}

type internal[V any] struct {
	keys     []string // len(children) - 1 separators
	children []node[V]
}

// New creates an empty tree.
func New[V any]() *Tree[V] {
	return &Tree[V]{root: &leaf[V]{}}
}

// Build bulk-loads a tree mapping strictly ascending keys[i] to vals[i]:
// full leaves linked left to right, then each internal level over the one
// below, separators being the first keys of right children. Each node owns
// a capped window of keys and vals, so an insert into it cannot spill over.
func Build[V any](keys []string, vals []V) *Tree[V] {
	t := &Tree[V]{root: &leaf[V]{}, size: len(keys)}
	var level []node[V]
	var firsts []string // the first key under each node of level
	var prev *leaf[V]
	for i := 0; i < len(keys); i += degree - 1 {
		j := min(i+degree-1, len(keys))
		l := &leaf[V]{keys: keys[i:j:j], vals: vals[i:j:j]}
		if prev != nil {
			prev.next = l
		}
		prev, level, firsts = l, append(level, l), append(firsts, keys[i])
	}
	for len(level) > 1 {
		var up []node[V]
		var upFirsts []string
		for i := 0; i < len(level); i += degree {
			j := min(i+degree, len(level))
			up = append(up, &internal[V]{keys: firsts[i+1 : j : j], children: level[i:j:j]})
			upFirsts = append(upFirsts, firsts[i])
		}
		level, firsts = up, upFirsts
	}
	if len(level) == 1 {
		t.root = level[0]
	}
	return t
}

// Len returns the number of keys in the tree.
func (t *Tree[V]) Len() int {
	t.latch.RLock()
	defer t.latch.RUnlock()
	return t.size
}

// Get returns the value stored under key.
func (t *Tree[V]) Get(key string) (V, bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	return t.root.get(key)
}

// Insert stores val under key, replacing any existing value. It reports
// whether the key was newly inserted (false means replaced).
func (t *Tree[V]) Insert(key string, val V) bool {
	t.latch.Lock()
	defer t.latch.Unlock()
	right, splitKey, grew, inserted := t.root.insert(key, val, true)
	if grew {
		t.root = &internal[V]{keys: []string{splitKey}, children: []node[V]{t.root, right}}
	}
	if inserted {
		t.size++
	}
	return inserted
}

// InsertIfAbsent stores val under key only if the key is not present. It
// reports whether the value was stored.
func (t *Tree[V]) InsertIfAbsent(key string, val V) bool {
	t.latch.Lock()
	defer t.latch.Unlock()
	right, splitKey, grew, inserted := t.root.insert(key, val, false)
	if grew {
		t.root = &internal[V]{keys: []string{splitKey}, children: []node[V]{t.root, right}}
	}
	if inserted {
		t.size++
	}
	return inserted
}

// Delete removes key and reports whether it was present. Leaves are not
// rebalanced (deleted space is reclaimed when keys are reinserted), which is
// adequate for the workloads in this repository where deletes are rare.
func (t *Tree[V]) Delete(key string) bool {
	t.latch.Lock()
	defer t.latch.Unlock()
	if t.root.del(key) {
		t.size--
		return true
	}
	return false
}

// AscendRange calls fn for every key in [lo, hi] in ascending order. An
// empty hi means "to the end". Iteration stops early if fn returns false.
func (t *Tree[V]) AscendRange(lo, hi string, fn func(key string, val V) bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	l := t.root.findLeaf(lo)
	for l != nil {
		for i, k := range l.keys {
			if k < lo {
				continue
			}
			if hi != "" && k > hi {
				return
			}
			if !fn(k, l.vals[i]) {
				return
			}
		}
		l = l.next
	}
}

// Ascend calls fn for every key in ascending order.
func (t *Tree[V]) Ascend(fn func(key string, val V) bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	l := t.root.firstLeaf()
	for l != nil {
		for i, k := range l.keys {
			if !fn(k, l.vals[i]) {
				return
			}
		}
		l = l.next
	}
}

// --- leaf ---

func (l *leaf[V]) search(key string) (int, bool) {
	lo, hi := 0, len(l.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(l.keys) && l.keys[lo] == key
}

func (l *leaf[V]) insert(key string, val V, replace bool) (node[V], string, bool, bool) {
	i, found := l.search(key)
	if found {
		if replace {
			l.vals[i] = val
		}
		return nil, "", false, false
	}
	l.keys = append(l.keys, "")
	l.vals = append(l.vals, val)
	copy(l.keys[i+1:], l.keys[i:])
	copy(l.vals[i+1:], l.vals[i:])
	l.keys[i] = key
	l.vals[i] = val
	if len(l.keys) < degree {
		return nil, "", false, true
	}
	// Split.
	mid := len(l.keys) / 2
	right := &leaf[V]{
		keys: append([]string(nil), l.keys[mid:]...),
		vals: append([]V(nil), l.vals[mid:]...),
		next: l.next,
	}
	l.keys = l.keys[:mid]
	l.vals = l.vals[:mid]
	l.next = right
	return right, right.keys[0], true, true
}

func (l *leaf[V]) get(key string) (V, bool) {
	var zero V
	i, found := l.search(key)
	if !found {
		return zero, false
	}
	return l.vals[i], true
}

func (l *leaf[V]) del(key string) bool {
	i, found := l.search(key)
	if !found {
		return false
	}
	l.keys = append(l.keys[:i], l.keys[i+1:]...)
	l.vals = append(l.vals[:i], l.vals[i+1:]...)
	return true
}

func (l *leaf[V]) firstLeaf() *leaf[V]      { return l }
func (l *leaf[V]) findLeaf(string) *leaf[V] { return l }

// --- internal ---

func (n *internal[V]) childFor(key string) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (n *internal[V]) insert(key string, val V, replace bool) (node[V], string, bool, bool) {
	idx := n.childFor(key)
	right, splitKey, grew, inserted := n.children[idx].insert(key, val, replace)
	if !grew {
		return nil, "", false, inserted
	}
	// Insert splitKey/right after child idx.
	n.keys = append(n.keys, "")
	copy(n.keys[idx+1:], n.keys[idx:])
	n.keys[idx] = splitKey
	n.children = append(n.children, nil)
	copy(n.children[idx+2:], n.children[idx+1:])
	n.children[idx+1] = right
	if len(n.children) <= degree {
		return nil, "", false, inserted
	}
	// Split this internal node.
	midKey := len(n.keys) / 2
	promote := n.keys[midKey]
	rightNode := &internal[V]{
		keys:     append([]string(nil), n.keys[midKey+1:]...),
		children: append([]node[V](nil), n.children[midKey+1:]...),
	}
	n.keys = n.keys[:midKey]
	n.children = n.children[:midKey+1]
	return rightNode, promote, true, inserted
}

func (n *internal[V]) get(key string) (V, bool) { return n.children[n.childFor(key)].get(key) }
func (n *internal[V]) del(key string) bool      { return n.children[n.childFor(key)].del(key) }
func (n *internal[V]) firstLeaf() *leaf[V]      { return n.children[0].firstLeaf() }
func (n *internal[V]) findLeaf(key string) *leaf[V] {
	return n.children[n.childFor(key)].findLeaf(key)
}
