package ctree

import (
	"sort"
	"testing"
	"testing/quick"

	"tripoline/internal/xrand"
)

// model is a map-based reference the tree is checked against.
type model map[uint32]uint32

func (m model) sortedElems() []uint64 {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = Elem(k, m[k])
	}
	return out
}

func checkEqualsModel(t *testing.T, tr Tree, m model) {
	t.Helper()
	if tr.Size() != len(m) {
		t.Fatalf("Size = %d, want %d", tr.Size(), len(m))
	}
	want := m.sortedElems()
	got := tr.Elements(nil)
	if len(got) != len(want) {
		t.Fatalf("Elements length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("element %d: got (%d,%d), want (%d,%d)",
				i, Key(got[i]), Payload(got[i]), Key(want[i]), Payload(want[i]))
		}
	}
	for k, p := range m {
		e, ok := tr.Find(k)
		if !ok || Payload(e) != p {
			t.Fatalf("Find(%d) = (%v,%v), want payload %d", k, e, ok, p)
		}
	}
}

func TestEmpty(t *testing.T) {
	tr := Empty()
	if tr.Size() != 0 {
		t.Fatal("empty tree has size")
	}
	if _, ok := tr.Find(5); ok {
		t.Fatal("empty tree Find succeeded")
	}
	tr.ForEach(func(uint64) { t.Fatal("empty tree visited an element") })
}

func TestInsertSequential(t *testing.T) {
	tr := Empty()
	m := model{}
	for k := uint32(0); k < 500; k++ {
		tr = tr.Insert(Elem(k, k*7))
		m[k] = k * 7
	}
	checkEqualsModel(t, tr, m)
}

func TestInsertReverse(t *testing.T) {
	tr := Empty()
	m := model{}
	for k := 500; k > 0; k-- {
		tr = tr.Insert(Elem(uint32(k), uint32(k)))
		m[uint32(k)] = uint32(k)
	}
	checkEqualsModel(t, tr, m)
}

func TestInsertRandomAgainstModel(t *testing.T) {
	rng := xrand.New(99)
	tr := Empty()
	m := model{}
	for i := 0; i < 3000; i++ {
		k := uint32(rng.Intn(1000))
		p := uint32(rng.Intn(1 << 20))
		tr = tr.Insert(Elem(k, p))
		m[k] = p
	}
	checkEqualsModel(t, tr, m)
}

func TestReplacePayload(t *testing.T) {
	tr := Empty().Insert(Elem(10, 1)).Insert(Elem(10, 2))
	if tr.Size() != 1 {
		t.Fatalf("Size after replace = %d", tr.Size())
	}
	e, ok := tr.Find(10)
	if !ok || Payload(e) != 2 {
		t.Fatalf("Find = (%d, %v)", Payload(e), ok)
	}
}

func TestHistoryIndependence(t *testing.T) {
	// Same element set inserted in different orders must produce the same
	// traversal and shape (headness and priorities are key-derived).
	rng := xrand.New(7)
	keys := rng.Perm(400)
	a, b := Empty(), Empty()
	for _, k := range keys {
		a = a.Insert(Elem(uint32(k), uint32(k)))
	}
	for k := 399; k >= 0; k-- {
		b = b.Insert(Elem(uint32(k), uint32(k)))
	}
	sa, sb := a.Shape(), b.Shape()
	if sa != sb {
		t.Fatalf("shapes differ: %+v vs %+v", sa, sb)
	}
	ea, eb := a.Elements(nil), b.Elements(nil)
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("traversals differ")
		}
	}
}

func TestSnapshotImmutability(t *testing.T) {
	base := Empty()
	for k := uint32(0); k < 200; k++ {
		base = base.Insert(Elem(k, k))
	}
	before := base.Elements(nil)
	derived := base
	for k := uint32(200); k < 400; k++ {
		derived = derived.Insert(Elem(k, k))
	}
	// Also replace payloads of existing keys in the derived version.
	for k := uint32(0); k < 200; k += 3 {
		derived = derived.Insert(Elem(k, 9999))
	}
	after := base.Elements(nil)
	if len(before) != len(after) {
		t.Fatal("base tree length changed")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("base tree mutated at %d", i)
		}
	}
	if derived.Size() != 400 {
		t.Fatalf("derived size = %d", derived.Size())
	}
}

func TestFromSortedEqualsInserts(t *testing.T) {
	elems := make([]uint64, 0, 300)
	for k := uint32(0); k < 300; k++ {
		elems = append(elems, Elem(k*3, k))
	}
	a := FromSorted(elems)
	b := Empty()
	for i := len(elems) - 1; i >= 0; i-- {
		b = b.Insert(elems[i])
	}
	ea, eb := a.Elements(nil), b.Elements(nil)
	if len(ea) != len(eb) {
		t.Fatal("sizes differ")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("contents differ")
		}
	}
}

func TestInsertBatch(t *testing.T) {
	batch := []uint64{Elem(5, 1), Elem(3, 2), Elem(5, 7), Elem(1, 9)}
	tr := Empty().InsertBatch(batch)
	if tr.Size() != 3 {
		t.Fatalf("Size = %d", tr.Size())
	}
	if e, _ := tr.Find(5); Payload(e) != 7 {
		t.Fatal("later duplicate did not win")
	}
}

func TestShapeChunking(t *testing.T) {
	tr := Empty()
	const n = 4096
	for k := uint32(0); k < n; k++ {
		tr = tr.Insert(Elem(k, 0))
	}
	s := tr.Shape()
	if s.Elements != n {
		t.Fatalf("Elements = %d", s.Elements)
	}
	// With 1/ExpectedChunk head probability, heads should be well below
	// the element count (the compression property) but nonzero.
	if s.Heads == 0 || s.Heads > n/4 {
		t.Fatalf("Heads = %d for %d elements", s.Heads, n)
	}
}

func TestQuickModel(t *testing.T) {
	f := func(pairs []uint32) bool {
		tr := Empty()
		m := model{}
		for i := 0; i+1 < len(pairs); i += 2 {
			k := pairs[i] % 512
			p := pairs[i+1]
			tr = tr.Insert(Elem(k, p))
			m[k] = p
		}
		if tr.Size() != len(m) {
			return false
		}
		want := m.sortedElems()
		got := tr.Elements(nil)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestFindAbsent(t *testing.T) {
	tr := Empty()
	for k := uint32(0); k < 100; k += 2 {
		tr = tr.Insert(Elem(k, k))
	}
	for k := uint32(1); k < 100; k += 2 {
		if _, ok := tr.Find(k); ok {
			t.Fatalf("found absent key %d", k)
		}
	}
}

func TestElemRoundTrip(t *testing.T) {
	f := func(k, p uint32) bool {
		e := Elem(k, p)
		return Key(e) == k && Payload(e) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
