// Package ctree implements a persistent (purely functional) C-tree in the
// style of Aspen's compressed functional trees (Dhulipala, Blelloch, Shun,
// PLDI'19): a treap whose nodes are "head" elements selected by a hash of
// the element key, with each head carrying a sorted chunk of the non-head
// elements that follow it. Elements smaller than every head live in a
// prefix chunk at the root.
//
// Because headness is a pure function of the element key, the structure of
// the tree is history-independent: the same element set always produces the
// same tree, regardless of insertion order. All operations are functional —
// they never mutate an existing tree, so a Tree value is an immutable
// snapshot that concurrent readers may traverse while writers derive new
// versions.
//
// Elements are uint64 values whose high 32 bits form the key (for edge
// trees: the neighbor vertex ID) and whose low 32 bits are an opaque
// payload (the edge weight). Ordering, equality and headness are all by
// key only; inserting an element whose key is present replaces the payload.
//
// The expected chunk length is ExpectedChunk; with B-way head selection the
// treap holds ~n/B nodes, giving Aspen's cache-friendly layout and low
// space overhead while keeping O(log n) functional updates.
package ctree

import (
	"tripoline/internal/xrand"
)

// ExpectedChunk is the expected number of elements per chunk (the head
// selection probability is 1/ExpectedChunk). It must be a power of two.
const ExpectedChunk = 32

// Key extracts the ordering key of an element (the high 32 bits).
func Key(e uint64) uint32 { return uint32(e >> 32) }

// Payload extracts the payload of an element (the low 32 bits).
func Payload(e uint64) uint32 { return uint32(e) }

// Elem packs a key and payload into an element.
func Elem(key, payload uint32) uint64 { return uint64(key)<<32 | uint64(payload) }

// isHead reports whether the element with key k is a head. Headness is a
// pure function of the key, making tree shape history-independent.
func isHead(k uint32) bool {
	return xrand.Hash64(uint64(k))&(ExpectedChunk-1) == 0
}

// prio returns the deterministic treap priority for a head key.
func prio(k uint32) uint64 { return xrand.Hash64(uint64(k) ^ 0xC13FA9A902A6328F) }

// node is one head of the treap plus its trailing chunk. Nodes are
// immutable after construction.
type node struct {
	left, right *node
	chunk       []uint64 // sorted non-head elements with keys in (Key(head), next head)
	head        uint64
	size        int // elements in this subtree, including heads and chunks
	pri         uint64
}

func (n *node) subSize() int {
	if n == nil {
		return 0
	}
	return n.size
}

func mk(left *node, head uint64, chunk []uint64, right *node) *node {
	return &node{
		left:  left,
		right: right,
		head:  head,
		chunk: chunk,
		size:  left.subSize() + right.subSize() + 1 + len(chunk),
		pri:   prio(Key(head)),
	}
}

// Tree is an immutable C-tree snapshot. The zero value is the empty tree.
type Tree struct {
	prefix []uint64 // sorted non-head elements smaller than every head
	root   *node
}

// Empty returns the empty tree.
func Empty() Tree { return Tree{} }

// Size returns the number of elements.
func (t Tree) Size() int { return len(t.prefix) + t.root.subSize() }

// Find returns the element with the given key, if present.
func (t Tree) Find(key uint32) (uint64, bool) {
	if isHead(key) {
		n := t.root
		for n != nil {
			switch hk := Key(n.head); {
			case key < hk:
				n = n.left
			case key > hk:
				n = n.right
			default:
				return n.head, true
			}
		}
		return 0, false
	}
	chunk := t.prefix
	n := t.root
	var owner *node
	for n != nil {
		if key < Key(n.head) {
			n = n.left
		} else {
			owner = n
			n = n.right
		}
	}
	if owner != nil {
		chunk = owner.chunk
	}
	if e, ok := chunkFind(chunk, key); ok {
		return e, true
	}
	return 0, false
}

// chunkFind binary-searches a sorted chunk by key.
func chunkFind(chunk []uint64, key uint32) (uint64, bool) {
	lo, hi := 0, len(chunk)
	for lo < hi {
		mid := (lo + hi) / 2
		if Key(chunk[mid]) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(chunk) && Key(chunk[lo]) == key {
		return chunk[lo], true
	}
	return 0, false
}

// chunkInsert returns a fresh sorted chunk with e inserted (or replacing
// the element with the same key) and reports whether the size grew.
func chunkInsert(chunk []uint64, e uint64) ([]uint64, bool) {
	key := Key(e)
	lo, hi := 0, len(chunk)
	for lo < hi {
		mid := (lo + hi) / 2
		if Key(chunk[mid]) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(chunk) && Key(chunk[lo]) == key {
		out := make([]uint64, len(chunk))
		copy(out, chunk)
		out[lo] = e
		return out, false
	}
	out := make([]uint64, len(chunk)+1)
	copy(out, chunk[:lo])
	out[lo] = e
	copy(out[lo+1:], chunk[lo:])
	return out, true
}

// chunkSplit partitions a sorted chunk around key into (< key) and (> key)
// halves. Elements equal to key are dropped (callers ensure none exist or
// handle replacement beforehand).
func chunkSplit(chunk []uint64, key uint32) (lo, hi []uint64) {
	i := 0
	for i < len(chunk) && Key(chunk[i]) < key {
		i++
	}
	j := i
	for j < len(chunk) && Key(chunk[j]) == key {
		j++
	}
	// Copy both halves so the result never aliases the immutable source in
	// a way a later append could clobber.
	lo = append([]uint64(nil), chunk[:i]...)
	hi = append([]uint64(nil), chunk[j:]...)
	return lo, hi
}

// Insert returns a tree containing e in addition to t's elements. If an
// element with the same key exists, its payload is replaced.
func (t Tree) Insert(e uint64) Tree {
	if isHead(Key(e)) {
		return t.insertHead(e)
	}
	root, ok := addNonHead(t.root, e)
	if ok {
		return Tree{prefix: t.prefix, root: root}
	}
	p, _ := chunkInsert(t.prefix, e)
	return Tree{prefix: p, root: t.root}
}

// addNonHead inserts non-head e somewhere in n's chunks, reporting false
// when e precedes every head in n (the caller then owns it: either an
// ancestor's chunk or the prefix).
func addNonHead(n *node, e uint64) (*node, bool) {
	if n == nil {
		return nil, false
	}
	if Key(e) < Key(n.head) {
		nl, ok := addNonHead(n.left, e)
		if !ok {
			return n, false
		}
		return &node{left: nl, right: n.right, head: n.head, chunk: n.chunk,
			size: n.size + nl.subSize() - n.left.subSize(), pri: n.pri}, true
	}
	if nr, ok := addNonHead(n.right, e); ok {
		return &node{left: n.left, right: nr, head: n.head, chunk: n.chunk,
			size: n.size + nr.subSize() - n.right.subSize(), pri: n.pri}, true
	}
	c, grew := chunkInsert(n.chunk, e)
	delta := 0
	if grew {
		delta = 1
	}
	return &node{left: n.left, right: n.right, head: n.head, chunk: c,
		size: n.size + delta, pri: n.pri}, true
}

// insertHead inserts a head element: elements greater than the new head in
// its predecessor's chunk (or the prefix) migrate into the new head's
// chunk, then the head joins the treap by priority.
func (t Tree) insertHead(e uint64) Tree {
	key := Key(e)
	// Fast path: replacing an existing head's payload.
	if old, ok := t.Find(key); ok && isHead(Key(old)) {
		return Tree{prefix: t.prefix, root: replaceHead(t.root, e)}
	}
	root, tail, fromPrefix := stealTail(t.root, key)
	prefix := t.prefix
	if fromPrefix {
		prefix, tail = chunkSplit(t.prefix, key)
	}
	nn := mk(nil, e, tail, nil)
	l, r := splitHeads(root, key)
	return Tree{prefix: prefix, root: merge(merge(l, nn), r)}
}

// replaceHead swaps the payload of an existing head, path-copying.
func replaceHead(n *node, e uint64) *node {
	switch key := Key(e); {
	case key < Key(n.head):
		return &node{left: replaceHead(n.left, e), right: n.right, head: n.head,
			chunk: n.chunk, size: n.size, pri: n.pri}
	case key > Key(n.head):
		return &node{left: n.left, right: replaceHead(n.right, e), head: n.head,
			chunk: n.chunk, size: n.size, pri: n.pri}
	default:
		return &node{left: n.left, right: n.right, head: e, chunk: n.chunk,
			size: n.size, pri: n.pri}
	}
}

// stealTail removes, from the chunk of the predecessor head of key, the
// elements greater than key, returning them as tail. fromPrefix reports
// that key has no predecessor head, so the caller must split the prefix
// instead.
func stealTail(n *node, key uint32) (out *node, tail []uint64, fromPrefix bool) {
	if n == nil {
		return nil, nil, true
	}
	if key < Key(n.head) {
		nl, tail, fromPrefix := stealTail(n.left, key)
		if fromPrefix {
			return n, nil, true
		}
		return &node{left: nl, right: n.right, head: n.head, chunk: n.chunk,
			size: n.size + nl.subSize() - n.left.subSize(), pri: n.pri}, tail, false
	}
	// n.head < key: predecessor is in right subtree if any head there is
	// < key; otherwise n itself.
	if nr, tail, fp := stealTail(n.right, key); !fp {
		return &node{left: n.left, right: nr, head: n.head, chunk: n.chunk,
			size: n.size + nr.subSize() - n.right.subSize(), pri: n.pri}, tail, false
	}
	keep, tail := chunkSplit(n.chunk, key)
	return &node{left: n.left, right: n.right, head: n.head, chunk: keep,
		size: n.size - len(tail), pri: n.pri}, tail, false
}

// splitHeads splits the treap into heads with key < k and heads with
// key > k. A head equal to k must not be present (handled by caller).
func splitHeads(n *node, k uint32) (l, r *node) {
	if n == nil {
		return nil, nil
	}
	if Key(n.head) < k {
		rl, rr := splitHeads(n.right, k)
		return mk(n.left, n.head, n.chunk, rl), rr
	}
	ll, lr := splitHeads(n.left, k)
	return ll, mk(lr, n.head, n.chunk, n.right)
}

// merge joins two treaps where every head in a precedes every head in b.
func merge(a, b *node) *node {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.pri >= b.pri:
		return mk(a.left, a.head, a.chunk, merge(a.right, b))
	default:
		return mk(merge(a, b.left), b.head, b.chunk, b.right)
	}
}

// InsertBatch returns a tree containing all elements of batch in addition
// to t's. batch need not be sorted; later duplicates win.
func (t Tree) InsertBatch(batch []uint64) Tree {
	for _, e := range batch {
		t = t.Insert(e)
	}
	return t
}

// FromSorted builds a tree from a slice sorted by key with unique keys.
// It is equivalent to inserting each element (the tree is history
// independent) but is the conventional bulk-load entry point.
func FromSorted(elems []uint64) Tree {
	t := Empty()
	for _, e := range elems {
		t = t.Insert(e)
	}
	return t
}

// ForEach visits every element in ascending key order.
func (t Tree) ForEach(f func(e uint64)) {
	for _, e := range t.prefix {
		f(e)
	}
	t.root.forEach(f)
}

func (n *node) forEach(f func(e uint64)) {
	if n == nil {
		return
	}
	n.left.forEach(f)
	f(n.head)
	for _, e := range n.chunk {
		f(e)
	}
	n.right.forEach(f)
}

// Elements appends all elements in ascending key order to dst.
func (t Tree) Elements(dst []uint64) []uint64 {
	t.ForEach(func(e uint64) { dst = append(dst, e) })
	return dst
}

// Stats describes the physical shape of a tree, for diagnostics and tests.
type Stats struct {
	Heads     int // treap nodes
	Elements  int // total elements
	MaxChunk  int // longest chunk (including prefix)
	TreeDepth int // treap height
}

// Shape computes physical statistics of the tree.
func (t Tree) Shape() Stats {
	s := Stats{Elements: t.Size(), MaxChunk: len(t.prefix)}
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if n == nil {
			return
		}
		s.Heads++
		if depth > s.TreeDepth {
			s.TreeDepth = depth
		}
		if len(n.chunk) > s.MaxChunk {
			s.MaxChunk = len(n.chunk)
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(t.root, 1)
	return s
}
