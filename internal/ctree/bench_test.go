package ctree

import (
	"sort"
	"testing"

	"tripoline/internal/xrand"
)

func BenchmarkInsertSequential(b *testing.B) {
	b.ReportAllocs()
	tr := Empty()
	for i := 0; i < b.N; i++ {
		tr = tr.Insert(Elem(uint32(i), uint32(i)))
	}
	_ = tr
}

func BenchmarkInsertRandom(b *testing.B) {
	b.ReportAllocs()
	rng := xrand.New(1)
	tr := Empty()
	for i := 0; i < b.N; i++ {
		tr = tr.Insert(Elem(rng.Uint32(), 1))
	}
	_ = tr
}

func BenchmarkFind(b *testing.B) {
	tr := Empty()
	const n = 1 << 16
	for k := uint32(0); k < n; k++ {
		tr = tr.Insert(Elem(k, k))
	}
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Find(uint32(rng.Intn(n)))
	}
}

func BenchmarkForEach(b *testing.B) {
	tr := Empty()
	const n = 1 << 14
	for k := uint32(0); k < n; k++ {
		tr = tr.Insert(Elem(k, k))
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		tr.ForEach(func(e uint64) { sink += e })
	}
	_ = sink
	b.SetBytes(n * 8)
}

func BenchmarkRemove(b *testing.B) {
	base := Empty()
	const n = 1 << 14
	for k := uint32(0); k < n; k++ {
		base = base.Insert(Elem(k, k))
	}
	rng := xrand.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.Remove(uint32(rng.Intn(n))) // persistent: base unchanged
	}
}

// BenchmarkVertexTableSet prices one batch's table write: SetMany over a
// sorted set of 10k random vertices of a 2^17-vertex table, the shape of
// a 10k-edge insertion batch.
func BenchmarkVertexTableSet(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 17
	v := NewVertexTable(n)
	t := Empty().Insert(Elem(1, 1))
	rng := xrand.New(4)
	seen := map[int]bool{}
	for len(seen) < 10_000 {
		seen[rng.Intn(n)] = true
	}
	idx := make([]int, 0, len(seen))
	for i := range seen {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	trees := make([]Tree, len(idx))
	for k := range trees {
		trees[k] = t
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.SetMany(idx, trees)
	}
}
