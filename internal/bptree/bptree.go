// Package bptree implements an in-memory B+-tree mapping values to row
// positions. The delta partition uses it for fast value retrievals over
// its unsorted dictionary (paper Section II), and tables use it as the
// DRAM-resident single-column index structure that query execution
// prefers over scans.
package bptree

import (
	"tierdb/internal/value"
)

// fanout is the maximum number of keys per node.
const fanout = 64

// Tree is a B+-tree from value.Value keys to lists of row positions.
// It supports duplicate insertions (positions accumulate per key). The
// zero value is not usable; call New. Not safe for concurrent mutation;
// concurrent readers are safe between mutations.
type Tree struct {
	typ  value.Type
	root node
	size int // distinct keys
}

type node interface {
	isLeaf() bool
}

type innerNode struct {
	keys     []value.Value // separator keys; len(children) == len(keys)+1
	children []node
}

func (*innerNode) isLeaf() bool { return false }

type leafNode struct {
	keys []value.Value
	vals [][]uint32
	next *leafNode
}

func (*leafNode) isLeaf() bool { return true }

// New returns an empty tree for keys of the given type.
func New(typ value.Type) *Tree {
	return &Tree{typ: typ, root: &leafNode{}}
}

// FromCodes bulk-loads the tree of a dictionary-encoded column: keys
// are its distinct values, ascending, and codes[row] is the index in keys
// of row's value; every key must occur at least once. A counting sort
// groups the rows by code, so each key's positions come out ascending —
// as Insert would leave them — and the tree is built bottom-up with full
// leaves. Leaves alias keys, which must not be modified; each position
// list is a capped slice of one shared array, so a later Insert that
// appends to one can never overwrite its neighbour's.
func FromCodes(typ value.Type, keys []value.Value, codes []uint32) *Tree {
	// ends[k] is first the count of key k's rows, then where its
	// positions start, and after the scatter where they end.
	ends := make([]int, len(keys))
	for _, c := range codes {
		ends[c]++
	}
	at := 0
	for k, n := range ends {
		ends[k] = at
		at += n
	}
	positions := make([]uint32, len(codes))
	for row, c := range codes {
		positions[ends[c]] = uint32(row)
		ends[c]++
	}
	lists, start := make([][]uint32, len(keys)), 0
	for k, end := range ends {
		lists[k], start = positions[start:end:end], end
	}
	return FromRuns(typ, keys, lists)
}

// FromRuns builds a tree bottom-up from ascending distinct keys and their
// position lists: full leaves, all in one allocation, then levels of
// inner nodes of up to fanout children each. The tree aliases keys and
// lists, which must not be modified; a list must be capped, so that a
// later insert that appends to it reallocates it.
func FromRuns(typ value.Type, keys []value.Value, lists [][]uint32) *Tree {
	t := &Tree{typ: typ, root: &leafNode{}, size: len(keys)}
	leaves := make([]leafNode, (len(keys)+fanout-1)/fanout)
	var level []node
	var first []value.Value // the smallest key under each node of level
	for i := range leaves {
		lo, hi := i*fanout, min((i+1)*fanout, len(keys))
		leaves[i] = leafNode{keys: keys[lo:hi:hi], vals: lists[lo:hi:hi]}
		if i > 0 {
			leaves[i-1].next = &leaves[i]
		}
		level, first = append(level, &leaves[i]), append(first, keys[lo])
	}
	for len(level) > 1 {
		var up []node
		var upFirst []value.Value
		for lo := 0; lo < len(level); lo += fanout {
			hi := min(lo+fanout, len(level))
			// A separator is the smallest key of the child to its right.
			up = append(up, &innerNode{keys: first[lo+1 : hi : hi], children: level[lo:hi:hi]})
			upFirst = append(upFirst, first[lo])
		}
		level, first = up, upFirst
	}
	if len(level) == 1 {
		t.root = level[0]
	}
	return t
}

// Type returns the key type.
func (t *Tree) Type() value.Type { return t.typ }

// Len returns the number of distinct keys.
func (t *Tree) Len() int { return t.size }

// Insert adds position pos under key k.
func (t *Tree) Insert(k value.Value, pos uint32) { t.InsertRun(k, []uint32{pos}) }

// InsertRun adds positions under key k, after the ones already there, in
// one descent: a batch of rows that share a key costs what one row does.
// The tree keeps a copy of run, not run.
func (t *Tree) InsertRun(k value.Value, run []uint32) {
	newChild, sep := t.insert(t.root, k, run)
	if newChild != nil {
		t.root = &innerNode{
			keys:     []value.Value{sep},
			children: []node{t.root, newChild},
		}
	}
}

// insert descends into n; on split it returns the new right sibling and
// its separator key.
func (t *Tree) insert(n node, k value.Value, run []uint32) (node, value.Value) {
	if leaf, ok := n.(*leafNode); ok {
		i := lowerBound(leaf.keys, k)
		if i < len(leaf.keys) && leaf.keys[i].Equal(k) {
			leaf.vals[i] = append(leaf.vals[i], run...)
			return nil, value.Value{}
		}
		leaf.keys = append(leaf.keys, value.Value{})
		leaf.vals = append(leaf.vals, nil)
		copy(leaf.keys[i+1:], leaf.keys[i:])
		copy(leaf.vals[i+1:], leaf.vals[i:])
		leaf.keys[i] = k
		leaf.vals[i] = append(make([]uint32, 0, len(run)), run...)
		t.size++
		if len(leaf.keys) <= fanout {
			return nil, value.Value{}
		}
		// Split.
		mid := len(leaf.keys) / 2
		right := &leafNode{
			keys: append([]value.Value(nil), leaf.keys[mid:]...),
			vals: append([][]uint32(nil), leaf.vals[mid:]...),
			next: leaf.next,
		}
		leaf.keys = leaf.keys[:mid]
		leaf.vals = leaf.vals[:mid]
		leaf.next = right
		return right, right.keys[0]
	}

	in := n.(*innerNode)
	ci := upperBound(in.keys, k)
	newChild, sep := t.insert(in.children[ci], k, run)
	if newChild == nil {
		return nil, value.Value{}
	}
	in.keys = append(in.keys, value.Value{})
	in.children = append(in.children, nil)
	copy(in.keys[ci+1:], in.keys[ci:])
	copy(in.children[ci+2:], in.children[ci+1:])
	in.keys[ci] = sep
	in.children[ci+1] = newChild
	if len(in.keys) <= fanout {
		return nil, value.Value{}
	}
	mid := len(in.keys) / 2
	sepUp := in.keys[mid]
	right := &innerNode{
		keys:     append([]value.Value(nil), in.keys[mid+1:]...),
		children: append([]node(nil), in.children[mid+1:]...),
	}
	in.keys = in.keys[:mid]
	in.children = in.children[:mid+1]
	return right, sepUp
}

// Lookup returns the positions stored under k (nil if absent).
func (t *Tree) Lookup(k value.Value) []uint32 {
	leaf, i := t.findLeaf(k)
	if i < len(leaf.keys) && leaf.keys[i].Equal(k) {
		return leaf.vals[i]
	}
	return nil
}

// Range calls fn for every key in [lo, hi] in ascending order with its
// positions; fn returning false stops the iteration.
func (t *Tree) Range(lo, hi value.Value, fn func(k value.Value, positions []uint32) bool) {
	leaf, i := t.findLeaf(lo)
	for leaf != nil {
		for ; i < len(leaf.keys); i++ {
			if leaf.keys[i].Compare(hi) > 0 {
				return
			}
			if !fn(leaf.keys[i], leaf.vals[i]) {
				return
			}
		}
		leaf = leaf.next
		i = 0
	}
}

// findLeaf locates the leaf that would contain k and the lower-bound
// index of k within it.
func (t *Tree) findLeaf(k value.Value) (*leafNode, int) {
	n := t.root
	for {
		if leaf, ok := n.(*leafNode); ok {
			return leaf, lowerBound(leaf.keys, k)
		}
		in := n.(*innerNode)
		n = in.children[upperBound(in.keys, k)]
	}
}

// lowerBound returns the first index with keys[i] >= k.
func lowerBound(keys []value.Value, k value.Value) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid].Compare(k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index with keys[i] > k.
func upperBound(keys []value.Value, k value.Value) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid].Compare(k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
