// Package rbtree implements the self-balancing binary search tree the
// CGCM run-time library uses as its allocation map (§3.1 of the paper:
// "The run-time library stores the base and size of each allocation unit
// in a self-balancing binary tree map indexed by the base address").
//
// The tree is a left-leaning red-black tree keyed by uint64 addresses. The
// operation the runtime leans on is GreatestLTE: "to determine the base
// and size of a pointer's allocation unit, the run-time library finds the
// greatest key in the allocation map less than or equal to the pointer."
package rbtree

const (
	red   = true
	black = false
)

type node[V any] struct {
	key         uint64
	val         V
	left, right *node[V]
	color       bool
}

// Tree is an ordered map from uint64 keys to values of type V.
// The zero value is an empty tree ready to use.
type Tree[V any] struct {
	root *node[V]
	size int

	// free chains (through left) the nodes Delete unlinked, for Put to
	// reuse: the runtime deletes and re-inserts an entry on every
	// release/map pair. Nodes never leave the tree, so no caller can hold
	// one; the list is as long as the tree once was large.
	free *node[V]

	// slab is the unused tail of the chunk new nodes come from, and made
	// counts the nodes taken from chunks so far. A chunk holds that many
	// nodes, at least 4 and at most 256: n Puts into a fresh tree allocate
	// about log2(n) times, and once per 256 nodes past the largest chunk.
	slab []node[V]
	made int
}

// newNode returns a red leaf for key: recycled when the free list has one,
// else the next node of the slab.
func (t *Tree[V]) newNode(key uint64, val V) *node[V] {
	n := t.free
	if n != nil {
		t.free = n.left
	} else {
		if len(t.slab) == 0 {
			t.slab = make([]node[V], min(max(4, t.made), 256))
		}
		n, t.slab = &t.slab[0], t.slab[1:]
		t.made++
	}
	*n = node[V]{key: key, val: val, color: red}
	return n
}

// release puts an unlinked node on the free list, dropping its value so the
// list keeps nothing alive.
func (t *Tree[V]) release(n *node[V]) {
	*n = node[V]{left: t.free}
	t.free = n
}

// Clear empties the tree; its nodes go on the free list for the Puts that
// follow.
func (t *Tree[V]) Clear() {
	t.releaseAll(t.root)
	t.root, t.size = nil, 0
}

func (t *Tree[V]) releaseAll(n *node[V]) {
	if n != nil {
		t.releaseAll(n.left)
		t.releaseAll(n.right)
		t.release(n)
	}
}

// Len returns the number of entries.
func (t *Tree[V]) Len() int { return t.size }

func isRed[V any](n *node[V]) bool { return n != nil && n.color == red }

func rotateLeft[V any](h *node[V]) *node[V] {
	x := h.right
	h.right = x.left
	x.left = h
	x.color = h.color
	h.color = red
	return x
}

func rotateRight[V any](h *node[V]) *node[V] {
	x := h.left
	h.left = x.right
	x.right = h
	x.color = h.color
	h.color = red
	return x
}

func flipColors[V any](h *node[V]) {
	h.color = !h.color
	h.left.color = !h.left.color
	h.right.color = !h.right.color
}

func fixUp[V any](h *node[V]) *node[V] {
	if isRed(h.right) && !isRed(h.left) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	return h
}

// Put inserts or replaces the value for key.
func (t *Tree[V]) Put(key uint64, val V) {
	t.root = t.put(t.root, key, val)
	t.root.color = black
}

func (t *Tree[V]) put(h *node[V], key uint64, val V) *node[V] {
	if h == nil {
		t.size++
		return t.newNode(key, val)
	}
	switch {
	case key < h.key:
		h.left = t.put(h.left, key, val)
	case key > h.key:
		h.right = t.put(h.right, key, val)
	default:
		h.val = val
	}
	return fixUp(h)
}

// Get returns the value stored at key.
func (t *Tree[V]) Get(key uint64) (V, bool) {
	n := t.root
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// GreatestLTE returns the entry with the greatest key less than or equal
// to key — the paper's greatestLTE(allocInfoMap, ptr) primitive.
func (t *Tree[V]) GreatestLTE(key uint64) (uint64, V, bool) {
	var best *node[V]
	n := t.root
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			best = n
			n = n.right
		default:
			return n.key, n.val, true
		}
	}
	if best == nil {
		var zero V
		return 0, zero, false
	}
	return best.key, best.val, true
}

// LeastGT returns the entry with the least key strictly greater than key.
func (t *Tree[V]) LeastGT(key uint64) (uint64, V, bool) {
	var best *node[V]
	n := t.root
	for n != nil {
		if n.key > key {
			best = n
			n = n.left
		} else {
			n = n.right
		}
	}
	if best == nil {
		var zero V
		return 0, zero, false
	}
	return best.key, best.val, true
}

// Min returns the smallest entry.
func (t *Tree[V]) Min() (uint64, V, bool) {
	if t.root == nil {
		var zero V
		return 0, zero, false
	}
	n := t.root
	for n.left != nil {
		n = n.left
	}
	return n.key, n.val, true
}

// Max returns the largest entry.
func (t *Tree[V]) Max() (uint64, V, bool) {
	if t.root == nil {
		var zero V
		return 0, zero, false
	}
	n := t.root
	for n.right != nil {
		n = n.right
	}
	return n.key, n.val, true
}

// Delete removes key from the tree. It reports whether the key was present.
func (t *Tree[V]) Delete(key uint64) bool {
	if _, ok := t.Get(key); !ok {
		return false
	}
	if !isRed(t.root.left) && !isRed(t.root.right) {
		t.root.color = red
	}
	t.root = t.del(t.root, key)
	if t.root != nil {
		t.root.color = black
	}
	t.size--
	return true
}

func moveRedLeft[V any](h *node[V]) *node[V] {
	flipColors(h)
	if isRed(h.right.left) {
		h.right = rotateRight(h.right)
		h = rotateLeft(h)
		flipColors(h)
	}
	return h
}

func moveRedRight[V any](h *node[V]) *node[V] {
	flipColors(h)
	if isRed(h.left.left) {
		h = rotateRight(h)
		flipColors(h)
	}
	return h
}

func minNode[V any](h *node[V]) *node[V] {
	for h.left != nil {
		h = h.left
	}
	return h
}

func (t *Tree[V]) delMin(h *node[V]) *node[V] {
	if h.left == nil {
		t.release(h)
		return nil
	}
	if !isRed(h.left) && !isRed(h.left.left) {
		h = moveRedLeft(h)
	}
	h.left = t.delMin(h.left)
	return fixUp(h)
}

func (t *Tree[V]) del(h *node[V], key uint64) *node[V] {
	if key < h.key {
		if !isRed(h.left) && !isRed(h.left.left) {
			h = moveRedLeft(h)
		}
		h.left = t.del(h.left, key)
	} else {
		if isRed(h.left) {
			h = rotateRight(h)
		}
		if key == h.key && h.right == nil {
			t.release(h)
			return nil
		}
		if !isRed(h.right) && !isRed(h.right.left) {
			h = moveRedRight(h)
		}
		if key == h.key {
			m := minNode(h.right)
			h.key = m.key
			h.val = m.val
			h.right = t.delMin(h.right)
		} else {
			h.right = t.del(h.right, key)
		}
	}
	return fixUp(h)
}

// Ascend calls fn for every entry in increasing key order until fn
// returns false.
func (t *Tree[V]) Ascend(fn func(key uint64, val V) bool) {
	ascend(t.root, fn)
}

func ascend[V any](n *node[V], fn func(uint64, V) bool) bool {
	if n == nil {
		return true
	}
	if !ascend(n.left, fn) {
		return false
	}
	if !fn(n.key, n.val) {
		return false
	}
	return ascend(n.right, fn)
}

// CheckInvariants verifies red-black and BST invariants; it returns false
// if any are violated. Used by tests.
func (t *Tree[V]) CheckInvariants() bool {
	if isRed(t.root) {
		return false
	}
	blackHeight := -1
	var walk func(n *node[V], lo, hi uint64, loOK, hiOK bool, bh int) bool
	walk = func(n *node[V], lo, hi uint64, loOK, hiOK bool, bh int) bool {
		if n == nil {
			if blackHeight == -1 {
				blackHeight = bh
			}
			return bh == blackHeight
		}
		if loOK && n.key <= lo {
			return false
		}
		if hiOK && n.key >= hi {
			return false
		}
		if isRed(n) && (isRed(n.left) || isRed(n.right)) {
			return false
		}
		if isRed(n.right) {
			return false // left-leaning invariant
		}
		nb := bh
		if !isRed(n) {
			nb++
		}
		return walk(n.left, lo, n.key, loOK, true, nb) &&
			walk(n.right, n.key, hi, true, hiOK, nb)
	}
	return walk(t.root, 0, 0, false, false, 0)
}
