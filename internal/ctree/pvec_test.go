package ctree

import (
	"math/rand"
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
	var idx []int
	var trees []Tree
	for i := 0; i < n; i += 37 {
		idx = append(idx, i)
		trees = append(trees, Empty().Insert(Elem(uint32(i), 1)))
	}
	v := NewVertexTable(n).SetMany(idx, trees)
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
	v1 := v0.SetMany([]int{5}, []Tree{Empty().Insert(Elem(9, 9))})
	v2 := v1.SetMany([]int{5}, []Tree{Empty()})
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
	v = v.SetMany([]int{3}, []Tree{Empty().Insert(Elem(1, 2))})
	g := v.Grow(10_000)
	if g.Len() != 10_000 {
		t.Fatalf("Len = %d", g.Len())
	}
	if g.Get(3).Size() != 1 {
		t.Fatal("growth lost data")
	}
	g = g.SetMany([]int{9_999}, []Tree{Empty().Insert(Elem(7, 7))})
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
			t.Fatal("SetMany out of range did not panic")
		}
	}()
	NewVertexTable(4).SetMany([]int{4}, []Tree{Empty()})
}

func TestVertexTableQuick(t *testing.T) {
	f := func(idxs []uint16) bool {
		const n = 2048
		v := NewVertexTable(n)
		m := map[int]int{}
		for step, raw := range idxs {
			i := int(raw) % n
			v = v.SetMany([]int{i}, []Tree{Empty().Insert(Elem(uint32(step), uint32(step)))})
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

// TestVertexTableSetManyAscendingOnly: an unsorted or repeated index list
// panics rather than building a wrong table.
func TestVertexTableSetManyAscendingOnly(t *testing.T) {
	for _, idx := range [][]int{{3, 1}, {2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetMany(%v) did not panic", idx)
				}
			}()
			NewVertexTable(8).SetMany(idx, []Tree{Empty(), Empty()})
		}()
	}
}

// TestVertexTableSetManyMatchesModel applies random sorted index sets to
// tables of many shapes — around every depth boundary, and grown ones
// whose new subtrees are still nil — and holds each result to a map model,
// slot for slot. The table SetMany was called on must be unchanged.
func TestVertexTableSetManyMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tree := func(i, round int) Tree { return Empty().Insert(Elem(uint32(i), uint32(round))) }
	// check holds v to the model: model[i] names the round that last set
	// vertex i, and a vertex the model lacks holds the empty tree.
	check := func(label string, v VertexTable, n int, model map[int]int) {
		t.Helper()
		if v.Len() != n {
			t.Fatalf("%s: Len = %d, want %d", label, v.Len(), n)
		}
		for i := 0; i < n; i++ {
			got := v.Get(i)
			round, ok := model[i]
			if !ok {
				if got.Size() != 0 {
					t.Fatalf("%s: vertex %d holds %d arcs, want none", label, i, got.Size())
				}
				continue
			}
			if e, found := got.Find(uint32(i)); got.Size() != 1 || !found || Payload(e) != uint32(round) {
				t.Fatalf("%s: vertex %d does not hold round %d's tree", label, i, round)
			}
		}
	}
	// sets returns the index sets to apply to a table of n vertices.
	sets := func(n int) [][]int {
		every := make([]int, n)
		spread := []int{} // one index in every leaf
		for i := range every {
			every[i] = i
			if i%vtFan == vtFan/2 || (i == n-1 && i%vtFan < vtFan/2) {
				spread = append(spread, i)
			}
		}
		out := [][]int{{}, {rng.Intn(n)}, {0}, {n - 1}, every, spread}
		if n > 1 {
			out = append(out, []int{0, n - 1})
		}
		for r := 0; r < 4; r++ {
			var idx []int
			p := rng.Float64()
			for i := 0; i < n; i++ {
				if rng.Float64() < p {
					idx = append(idx, i)
				}
			}
			out = append(out, idx)
		}
		return out
	}
	var sizes []int
	for _, b := range []int{vtFan, vtFan * vtFan, vtFan * vtFan * vtFan} {
		sizes = append(sizes, b-1, b, b+1)
	}
	sizes = append(sizes, 1, 2)
	for _, n := range sizes {
		for _, grown := range []bool{false, true} {
			label := "fresh"
			v := NewVertexTable(n)
			model := map[int]int{}
			if grown {
				// A small table with data, grown to n: the new range's
				// subtrees are nil until SetMany reaches them.
				label = "grown"
				small := 1 + n/3
				v = NewVertexTable(small).SetMany([]int{small - 1}, []Tree{tree(small-1, 0)})
				model[small-1] = 0
				v = v.Grow(n)
			}
			for round, idx := range sets(n) {
				round++
				trees := make([]Tree, len(idx))
				for k, i := range idx {
					trees[k] = tree(i, round)
				}
				before := make(map[int]int, len(model))
				for i, r := range model {
					before[i] = r
				}
				next := v.SetMany(idx, trees)
				check(label+"/unchanged", v, n, before)
				for _, i := range idx {
					model[i] = round
				}
				check(label, next, n, model)
				v = next
			}
		}
	}
}
