package standing

import (
	"math/bits"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// Subscribed lanes are forward answers q(s) kept for their own sake, in
// pages: forward-only states of at most 64 lanes (a frontier mask is one
// word) that Update and UpdateDeletions carry with the root state, over
// the same arcs and in-arc view. A deletion resets a lane's tainted values
// to the meet of its source over the roots, which are recovered first, and
// not to init (trim.go). A page grows by a block of 8 lanes only
// when full; a new page opens only when every page holds 64. A free lane
// holds init, which no push improves and no taint seed matches. Queries
// read the root state alone, which lanes never touch: lanes do not count
// in Roots or K, and Narrow leaves them be. Lane id i is slot i%64 of
// page i/64.

// page is one state of lanes: slot k is rooted at sources[k] while live
// has bit k set.
type page struct {
	st      *engine.State
	sources [64]graph.VertexID
	live    uint64
}

// Install copies col's slot 0 — q(source) converged on the version the
// manager stands on — into the lowest free lane and returns its id. The
// page records what maintenance moves from now on (DrainMoved).
func (m *Manager) Install(source graph.VertexID, col *engine.State) int {
	lane := m.freeLane()
	pg, k := m.pages[lane/64], lane%64
	if pg.st.Changed == nil {
		pg.st.Changed = make([]uint64, pg.st.N)
	}
	pg.st.CopySlot(k, col, 0)
	pg.sources[k], pg.live = source, pg.live|1<<k
	return lane
}

// freeLane returns the lowest free lane, growing the last page by a block
// or opening a new one when there is none.
func (m *Manager) freeLane() int {
	for i, pg := range m.pages {
		if free := ^pg.live & (^uint64(0) >> (64 - pg.st.K)); free != 0 {
			return i*64 + bits.TrailingZeros64(free)
		}
	}
	last := len(m.pages) - 1
	if last < 0 || m.pages[last].st.K == 64 {
		m.pages = append(m.pages, &page{st: engine.NewState(m.Problem, m.Forward.N, 8)})
		return (last + 1) * 64
	}
	pg := m.pages[last]
	st := engine.NewState(m.Problem, m.Forward.N, pg.st.K+8)
	for k := range pg.st.K {
		st.CopySlot(k, pg.st, k)
	}
	st.Changed, pg.st = pg.st.Changed, st
	return last*64 + st.K - 8
}

// Free resets lane to init and returns it to the pool. An emptied page
// stops recording; trailing empty pages are dropped.
func (m *Manager) Free(lane int) {
	pg, k := m.pages[lane/64], lane%64
	arr, stride, off := pg.st.StrideView(k)
	init := m.Problem.InitValue()
	parallel.ForRange(pg.st.N, parallel.BlockGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			arr[v*stride+off] = init
		}
	})
	if pg.live &^= 1 << k; pg.live == 0 {
		pg.st.Changed = nil
	}
	for len(m.pages) > 0 && m.pages[len(m.pages)-1].live == 0 {
		m.pages = m.pages[:len(m.pages)-1]
	}
}

// LaneView returns lane's values as a zero-copy strided view: the value
// at v is arr[v*stride+off] (engine.State.StrideView). It aliases the
// lane, so it reads what the last maintenance left only while no
// maintenance runs.
func (m *Manager) LaneView(lane int) (arr []uint64, stride, off int) {
	return m.pages[lane/64].st.StrideView(lane % 64)
}

// LaneColumns returns a copy of each listed lane's values, out[i] holding
// lanes[i]'s, reading each page once for all of its listed lanes
// (engine.State.Columns).
func (m *Manager) LaneColumns(lanes []int) [][]uint64 {
	out := make([][]uint64, len(lanes))
	for pi, pg := range m.pages {
		var at, slots []int
		for i, l := range lanes {
			if l/64 == pi {
				at, slots = append(at, i), append(slots, l%64)
			}
		}
		if len(slots) == 0 {
			continue
		}
		for j, col := range pg.st.Columns(slots) {
			out[at[j]] = col
		}
	}
	return out
}

// DrainMoved calls f for every (lane, vertex) whose value maintenance
// moved since the last drain — every improvement, and every value a trim
// reset that came back different — and clears the record.
func (m *Manager) DrainMoved(f func(lane, v int)) {
	for i, pg := range m.pages {
		for v, mask := range pg.st.Changed {
			for ; mask != 0; mask &= mask - 1 {
				f(i*64+bits.TrailingZeros64(mask), v)
			}
		}
		clear(pg.st.Changed)
	}
}
