package ctree

import (
	"testing"
	"testing/quick"
)

func TestVertexTableEmpty(t *testing.T) {
	v := NewVertexTable(0)
	if v.Len() != 0 {
		t.Fatalf("Len = %d", v.Len())
	}
	if v.Get(0).Size() != 0 {
		t.Fatal("out-of-range Get not empty")
	}
}

func TestVertexTableSetGet(t *testing.T) {
	const n = 1000
	v := NewVertexTable(n)
	for i := 0; i < n; i += 37 {
		v = v.Set(i, Empty().Insert(Elem(uint32(i), 1)))
	}
	for i := 0; i < n; i++ {
		tr := v.Get(i)
		if i%37 == 0 {
			if tr.Size() != 1 {
				t.Fatalf("vertex %d tree size %d", i, tr.Size())
			}
			if e, ok := tr.Find(uint32(i)); !ok || Payload(e) != 1 {
				t.Fatalf("vertex %d lost its edge", i)
			}
		} else if tr.Size() != 0 {
			t.Fatalf("vertex %d unexpectedly non-empty", i)
		}
	}
}

func TestVertexTablePersistence(t *testing.T) {
	v0 := NewVertexTable(64)
	v1 := v0.Set(5, Empty().Insert(Elem(9, 9)))
	v2 := v1.Set(5, Empty())
	if v0.Get(5).Size() != 0 {
		t.Fatal("v0 mutated")
	}
	if v1.Get(5).Size() != 1 {
		t.Fatal("v1 mutated")
	}
	if v2.Get(5).Size() != 0 {
		t.Fatal("v2 wrong")
	}
}

func TestVertexTableGrow(t *testing.T) {
	v := NewVertexTable(10)
	v = v.Set(3, Empty().Insert(Elem(1, 2)))
	g := v.Grow(10_000)
	if g.Len() != 10_000 {
		t.Fatalf("Len = %d", g.Len())
	}
	if g.Get(3).Size() != 1 {
		t.Fatal("growth lost data")
	}
	g = g.Set(9_999, Empty().Insert(Elem(7, 7)))
	if g.Get(9_999).Size() != 1 {
		t.Fatal("set after grow failed")
	}
	if v.Len() != 10 {
		t.Fatal("original table length changed")
	}
}

func TestVertexTableGrowNoShrink(t *testing.T) {
	v := NewVertexTable(100)
	if v.Grow(10).Len() != 100 {
		t.Fatal("Grow shrank the table")
	}
}

func TestVertexTableSetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set out of range did not panic")
		}
	}()
	NewVertexTable(4).Set(4, Empty())
}

func TestVertexTableQuick(t *testing.T) {
	f := func(idxs []uint16) bool {
		const n = 2048
		v := NewVertexTable(n)
		m := map[int]int{}
		for step, raw := range idxs {
			i := int(raw) % n
			v = v.Set(i, Empty().Insert(Elem(uint32(step), uint32(step))))
			m[i] = step
		}
		for i, step := range m {
			e, ok := v.Get(i).Find(uint32(step))
			if !ok || Payload(e) != uint32(step) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
