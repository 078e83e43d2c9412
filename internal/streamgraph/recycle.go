package streamgraph

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"tripoline/internal/graph"
	"tripoline/internal/metrics"
)

// Slab recycling for flat mirrors. Every batch publishes a new version
// and therefore a new mirror; without reuse that is a multi-GB
// allocation per batch on large graphs, all of it garbage as soon as
// the next version lands. The recycler keeps retired mirrors' off/adj/
// wgt arrays in size-classed sync.Pools so the next build starts from a
// warm slab instead of fresh pages.
//
// Ownership protocol (checked by the poolbalance lint analyzer for the
// acquisition sites and by Flat's reference count at runtime):
//
//   - a builder acquires slabs via takeOff/takeArc and stores them into
//     the Flat it returns — the Flat owns them for its lifetime;
//   - readers pin the Flat with Retain/Release while they scan it, and
//     holders (core's history ring) keep it with Hold/Unhold;
//   - the Graph drops its reference when the next version is published,
//     and the snapshot's goes with Snapshot.RetireFlat (idempotent;
//     called by core once the next version is published);
//   - the last Release returns the slabs to the pools and poisons the
//     Flat's slices, so a use-after-retire fails fast instead of reading
//     a slab that a newer build is concurrently overwriting.
//
// Fresh slabs per build, with the garbage collector owning mirrors, cost
// serve-sharded 18–27 % in batch p50 (EXPERIMENTS.md, "Mirror lifetimes
// without the recycler").

// Slab size classes come two to a power of two — capacities 2^k and
// 1.5·2^k — so a slab leaves at most a third of itself unused. A mirror
// is held in one for as long as its version is current, and a directed
// graph's standing sets keep a transposed mirror beside it, so the
// rounding is paid twice over in live memory. 96 classes cover any slab
// that fits in memory.
const slabClasses = 96

// classCap is the capacity, in elements, of a slab of the class.
func classCap(class int) int64 {
	if class%2 == 0 {
		return 1 << (class / 2)
	}
	return 3 << (class / 2) >> 1
}

// classFor returns the smallest size class whose capacity is at least n.
func classFor(n int64) int {
	if n <= 1 {
		return 0
	}
	b := bits.Len64(uint64(n - 1)) // 2^(b-1) < n ≤ 2^b
	if n <= classCap(2*b-1) {
		return 2*b - 1
	}
	return 2 * b
}

// offSlab is a pooled offset array (capacity classCap(class) entries).
type offSlab struct {
	off   []int64
	class int
}

// arcSlab is a pooled adjacency+weight pair (capacity classCap(class) arcs
// each; the two are always acquired and released together because they
// are always the same length).
type arcSlab struct {
	adj   []graph.VertexID
	wgt   []graph.Weight
	class int
}

// slabRecycler holds one sync.Pool per size class for each slab kind.
// The zero value is ready to use.
type slabRecycler struct {
	off [slabClasses]sync.Pool
	arc [slabClasses]sync.Pool
}

func (r *slabRecycler) putOff(sl *offSlab) {
	r.off[sl.class].Put(sl)
}

func (r *slabRecycler) putArc(sl *arcSlab) {
	r.arc[sl.class].Put(sl)
}

// MirrorMetrics instruments mirror maintenance: how often the delta
// path is taken versus a full rebuild, how many bytes each build took
// from the parent mirror versus from new arcs, and how often slab
// acquisitions were served from the recycler. The recycler hit rate is
// 1 - misses/gets.
//
// Every version's mirror is patched from its parent's: a full build is
// a load into an empty graph, a delta build any other batch. WalkedBytes
// counts the batch arcs a build merges in or takes out. CopiedBytes counts
// what it takes from the parent: every parent arc, bulk-copied with its
// unchanged run or merged into a changed source's span, plus the parent's
// offset table.
type MirrorMetrics struct {
	FullBuilds  *metrics.Counter
	DeltaBuilds *metrics.Counter
	CopiedBytes *metrics.Counter
	WalkedBytes *metrics.Counter
	SlabGets    *metrics.Counter
	SlabMisses  *metrics.Counter
	SlabPuts    *metrics.Counter
}

// NewMirrorMetrics returns standalone (unregistered) instruments.
func NewMirrorMetrics() *MirrorMetrics {
	return &MirrorMetrics{
		FullBuilds:  &metrics.Counter{},
		DeltaBuilds: &metrics.Counter{},
		CopiedBytes: &metrics.Counter{},
		WalkedBytes: &metrics.Counter{},
		SlabGets:    &metrics.Counter{},
		SlabMisses:  &metrics.Counter{},
		SlabPuts:    &metrics.Counter{},
	}
}

// RegisterMirrorMetrics returns instruments registered in reg, so they
// appear in its Prometheus text and JSON snapshot views (the server
// wires the graph's metrics into its registry this way, which is how
// the fields reach /v1/stats and /v1/metrics).
func RegisterMirrorMetrics(reg *metrics.Registry) *MirrorMetrics {
	return &MirrorMetrics{
		FullBuilds:  reg.Counter("tripoline_mirror_full_builds_total", "Flat mirrors built by a load into an empty graph."),
		DeltaBuilds: reg.Counter("tripoline_mirror_delta_builds_total", "Flat mirrors built by patching a non-empty parent mirror."),
		CopiedBytes: reg.Counter("tripoline_mirror_copied_bytes_total", "Mirror bytes a delta patch took from the parent mirror: its arcs, copied or merged, and its offsets."),
		WalkedBytes: reg.Counter("tripoline_mirror_walked_bytes_total", "Mirror bytes of the batch arcs a patch merged in or took out."),
		SlabGets:    reg.Counter("tripoline_slab_gets_total", "Slab acquisitions for mirror builds."),
		SlabMisses:  reg.Counter("tripoline_slab_misses_total", "Slab acquisitions that fell back to a fresh allocation."),
		SlabPuts:    reg.Counter("tripoline_slab_puts_total", "Slabs returned to the recycler by retired mirrors."),
	}
}

// flatShared is the mirror-maintenance state shared by every mirror of
// one Graph: the slab recycler, the (swappable) instruments and the fault
// seam.
type flatShared struct {
	rec  slabRecycler
	met  atomic.Pointer[MirrorMetrics]
	seam FaultSeam
}

func newFlatShared() *flatShared {
	sh := &flatShared{}
	sh.met.Store(NewMirrorMetrics())
	return sh
}

func (sh *flatShared) metrics() *MirrorMetrics { return sh.met.Load() }

// takeOff returns an off slab holding at least n entries: a recycled one
// when the class's pool has one, a fresh one (a counted miss) otherwise —
// the pools have no New. Recycled slabs carry stale data.
func (sh *flatShared) takeOff(n int64) *offSlab {
	met, class := sh.metrics(), classFor(n)
	met.SlabGets.Inc()
	sl, _ := sh.rec.off[class].Get().(*offSlab)
	if sl == nil {
		met.SlabMisses.Inc()
		sl = &offSlab{off: make([]int64, classCap(class)), class: class}
	}
	return sl
}

// takeArc is takeOff for an arc slab holding at least m arcs.
func (sh *flatShared) takeArc(m int64) *arcSlab {
	met, class := sh.metrics(), classFor(m)
	met.SlabGets.Inc()
	sl, _ := sh.rec.arc[class].Get().(*arcSlab)
	if sl == nil {
		met.SlabMisses.Inc()
		sl = &arcSlab{adj: make([]graph.VertexID, classCap(class)), wgt: make([]graph.Weight, classCap(class)), class: class}
	}
	return sl
}

// defaultFlatShared backs the transposed mirrors TransposeFrom builds.
var defaultFlatShared = newFlatShared()

// MirrorMetrics returns the graph's mirror-maintenance instruments.
func (g *Graph) MirrorMetrics() *MirrorMetrics { return g.shared.metrics() }

// SetMirrorMetrics replaces the graph's mirror-maintenance instruments,
// typically with registry-backed ones from RegisterMirrorMetrics.
// Counts accumulated so far are not carried over.
func (g *Graph) SetMirrorMetrics(m *MirrorMetrics) {
	if m != nil {
		g.shared.met.Store(m)
	}
}
