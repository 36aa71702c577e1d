package rbtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	var tr Tree[int]
	if tr.Len() != 0 {
		t.Errorf("empty Len = %d", tr.Len())
	}
	if _, ok := tr.Get(5); ok {
		t.Error("Get on empty succeeded")
	}
	if _, _, ok := tr.GreatestLTE(5); ok {
		t.Error("GreatestLTE on empty succeeded")
	}
	if _, _, ok := tr.Min(); ok {
		t.Error("Min on empty succeeded")
	}
	if tr.Delete(5) {
		t.Error("Delete on empty reported success")
	}
	if !tr.CheckInvariants() {
		t.Error("empty tree violates invariants")
	}
}

func TestPutGetOverwrite(t *testing.T) {
	var tr Tree[string]
	tr.Put(10, "a")
	tr.Put(20, "b")
	tr.Put(10, "c")
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
	if v, ok := tr.Get(10); !ok || v != "c" {
		t.Errorf("Get(10) = %q,%v", v, ok)
	}
}

func TestGreatestLTESemantics(t *testing.T) {
	var tr Tree[int]
	for _, k := range []uint64{16, 32, 64, 128} {
		tr.Put(k, int(k))
	}
	cases := []struct {
		q    uint64
		want uint64
		ok   bool
	}{
		{15, 0, false},
		{16, 16, true},
		{17, 16, true},
		{63, 32, true},
		{64, 64, true},
		{1000, 128, true},
	}
	for _, c := range cases {
		k, _, ok := tr.GreatestLTE(c.q)
		if ok != c.ok || (ok && k != c.want) {
			t.Errorf("GreatestLTE(%d) = %d,%v want %d,%v", c.q, k, ok, c.want, c.ok)
		}
	}
}

func TestLeastGT(t *testing.T) {
	var tr Tree[int]
	for _, k := range []uint64{10, 20, 30} {
		tr.Put(k, 0)
	}
	if k, _, ok := tr.LeastGT(10); !ok || k != 20 {
		t.Errorf("LeastGT(10) = %d,%v", k, ok)
	}
	if _, _, ok := tr.LeastGT(30); ok {
		t.Error("LeastGT(30) should fail")
	}
}

func TestAscendOrder(t *testing.T) {
	var tr Tree[int]
	keys := []uint64{5, 3, 9, 1, 7}
	for _, k := range keys {
		tr.Put(k, int(k))
	}
	var got []uint64
	tr.Ascend(func(k uint64, v int) bool {
		got = append(got, k)
		return true
	})
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("ascend order %v, want %v", got, keys)
		}
	}
	// Early stop.
	n := 0
	tr.Ascend(func(uint64, int) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop visited %d", n)
	}
}

// TestRandomOpsAgainstMap drives the tree with random operations and
// checks every observable against a reference map.
func TestRandomOpsAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tr Tree[int]
	ref := make(map[uint64]int)
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(500))
		switch rng.Intn(3) {
		case 0:
			v := rng.Int()
			tr.Put(k, v)
			ref[k] = v
		case 1:
			_, okRef := ref[k]
			if ok := tr.Delete(k); ok != okRef {
				t.Fatalf("Delete(%d) = %v, ref %v", k, ok, okRef)
			}
			delete(ref, k)
		case 2:
			v, ok := tr.Get(k)
			vr, okRef := ref[k]
			if ok != okRef || (ok && v != vr) {
				t.Fatalf("Get(%d) = %d,%v ref %d,%v", k, v, ok, vr, okRef)
			}
		}
		if i%1000 == 0 {
			if !tr.CheckInvariants() {
				t.Fatalf("invariants violated after %d ops", i)
			}
			if tr.Len() != len(ref) {
				t.Fatalf("Len = %d, ref %d", tr.Len(), len(ref))
			}
		}
	}
}

// freeLen counts the nodes on the tree's free list.
func freeLen[V any](t *Tree[V]) int {
	n := 0
	for f := t.free; f != nil; f = f.left {
		n++
	}
	return n
}

// TestDeletePutThroughRecycledNodes interleaves deletes and puts on a tree
// that has shrunk, so every Put takes a node Delete unlinked: the
// invariants, the order and the reference map must hold after every
// operation, the nodes in the tree and on the list must add up to the most
// the tree ever held, a listed node must keep no value alive, and a
// Delete/Put pair must allocate nothing.
func TestDeletePutThroughRecycledNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tr Tree[*int]
	ref := make(map[uint64]*int)
	const keys = 256
	for k := uint64(0); k < keys; k++ {
		v := new(int)
		tr.Put(k*16, v)
		ref[k*16] = v
	}
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(keys)) * 16
		// Two deletes for every put until the tree is half empty, then the
		// reverse, so the list both grows and drains.
		del := rng.Intn(3) != 0
		if (i/2000)%2 == 1 {
			del = !del
		}
		if del {
			_, okRef := ref[k]
			if ok := tr.Delete(k); ok != okRef {
				t.Fatalf("op %d: Delete(%d) = %v, ref %v", i, k, ok, okRef)
			}
			delete(ref, k)
		} else {
			v := new(int)
			tr.Put(k, v)
			ref[k] = v
		}
		if !tr.CheckInvariants() {
			t.Fatalf("op %d: invariants violated", i)
		}
		if tr.Len() != len(ref) || tr.Len()+freeLen(&tr) != keys {
			t.Fatalf("op %d: Len %d, ref %d, free %d, want Len+free = %d", i, tr.Len(), len(ref), freeLen(&tr), keys)
		}
		if i%500 != 0 {
			continue
		}
		prev, first := uint64(0), true
		tr.Ascend(func(k uint64, v *int) bool {
			if !first && k <= prev {
				t.Fatalf("op %d: Ascend out of order at %d", i, k)
			}
			if ref[k] != v {
				t.Fatalf("op %d: key %d holds another key's value", i, k)
			}
			prev, first = k, false
			return true
		})
		for f := tr.free; f != nil; f = f.left {
			if f.val != nil || f.right != nil {
				t.Fatalf("op %d: a free node still references a value or a subtree", i)
			}
		}
	}
	v := new(int)
	tr.Put(8, v)
	if a := testing.AllocsPerRun(100, func() {
		tr.Delete(8)
		tr.Put(8, v)
	}); a != 0 {
		t.Errorf("Delete+Put allocated %v objects per pair, want 0", a)
	}
}

// TestQuickGreatestLTE property: GreatestLTE always equals the brute
// force maximum key <= query.
func TestQuickGreatestLTE(t *testing.T) {
	f := func(keys []uint64, query uint64) bool {
		var tr Tree[bool]
		for _, k := range keys {
			tr.Put(k, true)
		}
		gk, _, gok := tr.GreatestLTE(query)
		var bk uint64
		bok := false
		for _, k := range keys {
			if k <= query && (!bok || k > bk) {
				bk, bok = k, true
			}
		}
		return gok == bok && (!gok || gk == bk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickInvariants property: any insert/delete sequence preserves
// red-black and BST invariants and exact membership.
func TestQuickInvariants(t *testing.T) {
	f := func(ops []int16) bool {
		var tr Tree[int]
		ref := make(map[uint64]bool)
		for _, op := range ops {
			k := uint64(op) & 0xff
			if op >= 0 {
				tr.Put(k, int(k))
				ref[k] = true
			} else {
				tr.Delete(k)
				delete(ref, k)
			}
		}
		if !tr.CheckInvariants() || tr.Len() != len(ref) {
			return false
		}
		for k := range ref {
			if _, ok := tr.Get(k); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPut(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var tr Tree[int]
	for i := 0; i < b.N; i++ {
		tr.Put(uint64(rng.Intn(1<<20)), i)
	}
}

func BenchmarkGreatestLTE(b *testing.B) {
	var tr Tree[int]
	for i := 0; i < 4096; i++ {
		tr.Put(uint64(i*64), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.GreatestLTE(uint64(i % (4096 * 64)))
	}
}
