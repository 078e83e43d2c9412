package bitset

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	s := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if s.Get(i) {
			t.Fatalf("fresh set has bit %d", i)
		}
		s.Set(i)
		if !s.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
		s.Clear(i)
		if s.Get(i) {
			t.Fatalf("bit %d not cleared", i)
		}
	}
}

func TestCountAndForEach(t *testing.T) {
	s := New(300)
	want := []int{3, 64, 65, 130, 299}
	for _, i := range want {
		s.Set(i)
	}
	if s.Count() != len(want) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(want))
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want ascending %v", got, want)
		}
	}
}

func TestMembersMatchesForEach(t *testing.T) {
	s := New(128)
	s.Set(5)
	s.Set(77)
	m := s.Members(nil)
	if len(m) != 2 || m[0] != 5 || m[1] != 77 {
		t.Fatalf("Members = %v", m)
	}
}

func TestReset(t *testing.T) {
	s := New(100)
	for i := 0; i < 100; i += 3 {
		s.Set(i)
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatalf("Count after Reset = %d", s.Count())
	}
}

func TestOr(t *testing.T) {
	a, b := New(128), New(128)
	a.Set(1)
	b.Set(100)
	a.Or(b)
	if !a.Get(1) || !a.Get(100) || a.Count() != 2 {
		t.Fatal("Or wrong")
	}
}

// TestModelQuick checks Set against a map model under random operations.
func TestModelQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 512
		s := New(n)
		model := map[int]bool{}
		for _, op := range ops {
			i := int(op) % n
			switch op % 3 {
			case 0:
				s.Set(i)
				model[i] = true
			case 1:
				s.Clear(i)
				delete(model, i)
			case 2:
				if s.Get(i) != model[i] {
					return false
				}
			}
		}
		if s.Count() != len(model) {
			return false
		}
		ok := true
		s.ForEach(func(i int) {
			if !model[i] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicConcurrentSet(t *testing.T) {
	const n = 4096
	a := NewAtomic(n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 { // heavy overlap between workers
				a.TrySet(i)
			}
		}(w)
	}
	wg.Wait()
	if got := a.Count(); got != n {
		t.Fatalf("Count = %d, want %d", got, n)
	}
}

// TestAtomicTrySetOneWinner: of concurrent TrySets of one bit exactly one
// wins, and clearing every winner's bit empties the set.
func TestAtomicTrySetOneWinner(t *testing.T) {
	const n, workers = 1000, 4
	a := NewAtomic(n)
	wins := make([][]int, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i += 3 {
				if a.TrySet(i) {
					wins[w] = append(wins[w], i)
				}
			}
		}()
	}
	wg.Wait()
	won := make(map[int]bool)
	for _, ws := range wins {
		for _, i := range ws {
			if won[i] {
				t.Fatalf("bit %d won twice", i)
			}
			won[i] = true
		}
	}
	if len(won) != (n+2)/3 || a.Count() != len(won) {
		t.Fatalf("%d winners, %d bits set, want %d", len(won), a.Count(), (n+2)/3)
	}
	if a.TrySet(3) {
		t.Fatal("TrySet of a set bit won")
	}
	for i := range won {
		a.Clear(i)
	}
	if a.Count() != 0 {
		t.Fatalf("%d bits survive clearing every winner", a.Count())
	}
}

func TestAtomicWordAndReset(t *testing.T) {
	a := NewAtomic(256)
	a.TrySet(0)
	a.TrySet(255)
	if a.Word(0) != 1 || a.Word(3) != 1<<63 || a.Word(1)|a.Word(2) != 0 {
		t.Fatalf("words = %#x %#x %#x %#x", a.Word(0), a.Word(1), a.Word(2), a.Word(3))
	}
	a.Reset()
	if a.Count() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestLen(t *testing.T) {
	if New(65).Len() != 65 {
		t.Fatal("Set.Len wrong")
	}
	if NewAtomic(1).Len() != 1 {
		t.Fatal("Atomic.Len wrong")
	}
}

func TestGrowKeepsBitsAndClearsNew(t *testing.T) {
	s := New(70)
	s.Set(3)
	s.Set(69)
	s.Grow(200)
	if s.Len() != 200 || !s.Get(3) || !s.Get(69) || s.Count() != 2 {
		t.Fatalf("after Grow(200): len %d, members %v", s.Len(), s.Members(nil))
	}
	s.Set(199)
	s.Grow(100) // never shrinks
	if s.Len() != 200 || !s.Get(199) {
		t.Fatalf("Grow(100) changed a 200-bit set: len %d", s.Len())
	}
}
