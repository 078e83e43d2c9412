// Package engine implements Tripoline's vertex-centric evaluation runtime:
// one frontier-based push-model engine and a K-wide batch mode that
// evaluates up to 64 queries of the same type simultaneously under one
// combined frontier (§4.5).
//
// There is no pull model. The reversed query q⁻¹(r) of §4.2 — property(x,
// r) for every x on a directed graph — is q(r) over the graph with every
// arc reversed, so it runs as the same push over a view's transposed
// mirror (Transposer). The paper pulls over out-edges alone to save the
// in-edge index; this implementation keeps the index and pushes instead,
// because a pull cannot find the tails of an improved head without
// scanning every arc (DESIGN.md §14 has the measured trade).
//
// Vertex values are encoded uint64s (see package props for the encodings).
// Relaxations use compare-and-swap "improve-or-retry" loops, which is
// precisely the monotonic, async-safe vertex-function contract that
// Theorem 4.4 of the paper requires for Δ-based incremental evaluation to
// be correct.
//
// The kernels (kernel.go) hoist a vertex's source values into a register
// block, relax through a devirtualized scalar op where the problem names
// one, and are picked from the state's width alone: K=1 runs the scalar
// kernel over the contiguous Values array, K>1 the width-K kernel over
// NewState's slot-blocked storage. Both run under one frontier —
// membership bits and per-worker queues, plus slot masks at K>1 only — so
// a sparse superstep costs O(active) whatever N is.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"tripoline/internal/bitset"
	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// ErrCanceled is the sentinel for an evaluation stopped by its context.
// Match it with errors.Is; the concrete error is a *CanceledError
// carrying the partial-progress details and the context's cause.
var ErrCanceled = errors.New("engine: evaluation canceled")

// CanceledError reports an evaluation stopped at a superstep boundary by
// context cancellation or deadline expiry. The state holds the partial
// (monotonically improved, not yet converged) values; Stats in the
// caller's return describes the work completed. errors.Is matches both
// ErrCanceled and the underlying context error (context.Canceled or
// context.DeadlineExceeded).
type CanceledError struct {
	// Iterations is the number of supersteps that completed before the
	// boundary check observed the cancellation.
	Iterations int
	// Cause is the context's error.
	Cause error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("engine: evaluation canceled after %d supersteps: %v", e.Iterations, e.Cause)
}

// Is makes errors.Is(err, ErrCanceled) true.
func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

// Unwrap exposes the context error for errors.Is(err, context.DeadlineExceeded).
func (e *CanceledError) Unwrap() error { return e.Cause }

// ArcView is the one interface through which anything reads a graph: the
// kernels, standing maintenance, PageRank, the SSNSP count, the fixpoint
// check and the oracles. Its adjacency lives in flat arrays — a version's
// flat mirror is the store — so edge iteration is a plain loop over two
// slices with no closure or interface call per edge. *graph.CSR and
// *streamgraph.Flat satisfy it; *streamgraph.Snapshot deliberately does
// not, so handing a snapshot to a kernel does not compile.
type ArcView interface {
	NumVertices() int
	Degree(v graph.VertexID) int
	// OutSpan returns v's out-neighbor and weight slices, sorted by
	// destination. The slices alias the graph and must not be modified.
	OutSpan(v graph.VertexID) ([]graph.VertexID, []graph.Weight)
}

// Versioned is optionally implemented by views that carry the snapshot
// version they were materialized from (*streamgraph.Flat does, a static
// *graph.CSR does not). Consumers use it to pair evaluation state
// with the graph version it converged on — standing maintenance records
// it so the "standing state matches its snapshot version" invariant is
// observable rather than implied.
type Versioned interface {
	// Version is the monotonically increasing snapshot version.
	Version() uint64
}

// ArcDelta is optionally implemented by versioned views that also record
// how they differ from the version before them (*streamgraph.Flat does).
// State that converged on version v-1 is re-stabilized on version v by
// relaxing just these arcs (RunPushArcs) — the batch's cost follows what
// it stored, not the degrees of the vertices it touched.
type ArcDelta interface {
	Versioned
	// InsertedArcs returns the arcs this version added to its predecessor,
	// at the weights the graph holds for them and sorted by source; ok is
	// false when the version was not produced by an insertion. The slice
	// aliases the view and must not be modified.
	InsertedArcs() (arcs []graph.Edge, ok bool)
}

// Transposer is optionally implemented by views that also keep their
// graph with every arc reversed (*streamgraph.Flat does). A push over the
// transposed view from roots r evaluates the reversed queries q⁻¹(r). The
// transposed view carries the same version, and when it comes from an
// insertion it records the batch's arcs reversed and sorted by their new
// tail, so it is an ArcDelta of its own.
type Transposer interface {
	// Transposed returns the graph with every arc reversed, each span
	// sorted by destination: v's span lists the tails of v's in-arcs.
	Transposed() ArcView
}

// Problem defines one vertex-specific graph problem over encoded values.
// Implementations must be monotonic (Relax never yields a value worse than
// its input chain) and async-safe; all of package props' problems are.
type Problem interface {
	// Name identifies the problem (e.g. "SSSP").
	Name() string
	// InitValue is the default ("worst") value of an untouched vertex.
	InitValue() uint64
	// SourceValue is the value of the query's source vertex.
	SourceValue() uint64
	// Relax computes the candidate value a vertex with value srcVal
	// propagates to a neighbor across an edge of weight w. ok=false means
	// nothing propagates (e.g. srcVal is still the init value).
	Relax(srcVal uint64, w graph.Weight) (cand uint64, ok bool)
	// Better reports whether a is strictly better than b (a ≺ b).
	Better(a, b uint64) bool
	// Combine is the ⊕ operator of the graph triangle inequality
	// (Definition 3.1). It must satisfy
	//   Better(property(u,x), Combine(property(u,r), property(r,x)))
	//   or equal, for all u, r, x.
	Combine(a, b uint64) uint64
}

// Stats accumulates work counters for one evaluation. Activations is the
// number of vertex-function evaluations (per active (vertex, query) pair),
// the numerator/denominator of the activation ratio R_act (Eq. 11). An arc
// round (RunPushArcs) evaluates no vertex function: it is one iteration
// whose work shows in Relaxations, Updates, Hoists (one per distinct tail)
// and GateSkips only.
type Stats struct {
	Activations int64
	Relaxations int64 // edge relaxations attempted
	Updates     int64 // relaxations that changed a value
	Iterations  int
	// DenseIterations counts the RunPush iterations that used the dense
	// (membership-bit walk) frontier representation.
	DenseIterations int
	// Hoists counts per-vertex source-block register loads performed by
	// the fused push kernels: one per processed frontier vertex, and one
	// per distinct tail of an arc round.
	Hoists int64
	// GateSkips counts active (vertex, slot) pairs whose hoisted source
	// value was still at the problem's gate (init) value, pruned from the
	// edge loop before it started.
	GateSkips int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Activations += other.Activations
	s.Relaxations += other.Relaxations
	s.Updates += other.Updates
	s.Iterations += other.Iterations
	s.DenseIterations += other.DenseIterations
	s.Hoists += other.Hoists
	s.GateSkips += other.GateSkips
}

// lineWords is one cache line in uint64s. It is both the widest slot
// block (8 slots, so one vertex's block is one cache line) and the
// vertex-count padding granularity.
const lineWords = 8

func padVerts(n int) int { return (n + lineWords - 1) &^ (lineWords - 1) }

// blockWords is the slot-block width of a K>1 state: K itself below a
// cache line, so a narrow state holds no padding lanes and a column read
// strides K words rather than a whole line; lineWords from K=8 up.
func blockWords(k int) int { return min(k, lineWords) }

// fullMask is the slot mask with all of a K-wide state's K bits set.
func fullMask(k int) uint64 { return ^uint64(0) >> uint(64-k) }

// State is a K-wide evaluation state: for each vertex v and query slot
// k < K, Value(v, k) is the encoded value of v under query k. State is
// the persistent artifact of standing queries: it survives across graph
// updates and is resumed incrementally.
//
// Storage follows the width. A K=1 state keeps its one column
// contiguously in Values. A K>1 state exists only as NewState's
// slot-blocked storage: slots are grouped into blocks of lineWords (8),
// and within a block the storage is vertex-major — one vertex's 8 slot
// values occupy one cache line. A width-64 hoist or multi-slot relaxation
// therefore touches 8 consecutive lines instead of 64 lines scattered one
// per 8·padN-byte column, which is what makes the width-K kernels win
// once the value arrays outgrow the last-level cache. Below K=8 the one
// block is K slots wide (blockWords), so a width-2 state costs 16 bytes a
// vertex, not a line. The accessors below work on either width.
type State struct {
	P Problem
	K int
	N int
	// Values is the K=1 value array (Values[v], len N). nil on K>1
	// states — use the accessors, or Interleaved for a stride-K
	// materialization.
	Values []uint64
	// cols is the K>1 slot-blocked storage: ceil(K/bw) blocks of padN·bw
	// words, slot k's value of vertex v at
	// cols[(k/bw)·padN·bw + v·bw + k%bw], where bw = blockWords(K). Slots
	// K..ceil(K/bw)·bw-1 are padding lanes pinned at the init value. nil
	// on K=1 states.
	cols []uint64
	padN int
	bw   int
	// Changed, when non-nil, records what runs move: every run ORs into
	// Changed[v] the bit of each slot whose value at v it improved. The
	// state's owner sets it (len N; Grow extends it) and reads and clears
	// it between runs; nil on every query state, where it costs one check
	// per superstep. Not safe for runs that share the state concurrently.
	Changed []uint64
}

// NewState allocates a state with every value at the problem's init value.
func NewState(p Problem, n, k int) *State {
	if k < 1 || k > 64 {
		panic("engine: K must be in [1,64]")
	}
	st := &State{P: p, K: k, N: n}
	init := p.InitValue()
	if k > 1 {
		st.padN, st.bw = padVerts(n), blockWords(k)
		blocks := (k + st.bw - 1) / st.bw
		st.cols = make([]uint64, blocks*st.padN*st.bw)
		fill(st.cols, init)
		return st
	}
	st.Values = make([]uint64, n)
	fill(st.Values, init)
	return st
}

// fill sets every word of dst to v, in parallel blocks.
func fill(dst []uint64, v uint64) {
	parallel.ForRange(len(dst), parallel.BlockGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = v
		}
	})
}

// checkStorage panics on a K>1 state assembled as a literal: only
// NewState builds the slot-blocked storage the width-K kernels index.
func (st *State) checkStorage() {
	if st.K > 1 && st.cols == nil {
		panic("engine: a K>1 State must be allocated by NewState")
	}
}

// slotOff returns slot k's base offset in the slot-blocked slab: the
// value of (v, k) lives at cols[slotOff(k) + v·bw].
func (st *State) slotOff(k int) int {
	return (k/st.bw)*st.padN*st.bw + k%st.bw
}

// Value returns the value of vertex v under query slot k.
func (st *State) Value(v graph.VertexID, k int) uint64 {
	if st.cols != nil {
		return st.cols[st.slotOff(k)+int(v)*st.bw]
	}
	return st.Values[v]
}

// SetValue stores the value of vertex v under query slot k. It is a
// quiescent-phase accessor (initialization, repair sweeps) — concurrent
// use against a running kernel needs the kernels' atomics instead.
func (st *State) SetValue(v graph.VertexID, k int, val uint64) {
	if st.cols != nil {
		st.cols[st.slotOff(k)+int(v)*st.bw] = val
		return
	}
	st.Values[v] = val
}

// SetSource initializes slot k's source vertex.
func (st *State) SetSource(v graph.VertexID, k int) {
	st.SetValue(v, k, st.P.SourceValue())
}

// Column copies slot k's values into a fresh []uint64 of length N.
func (st *State) Column(k int) []uint64 { return st.Columns([]int{k})[0] }

// Columns copies the given slots' values, out[i] holding slot slots[i]'s
// column, in one pass over the vertices: slots that share a slot block are
// read from one cache line per vertex, not once per slot.
func (st *State) Columns(slots []int) [][]uint64 {
	out := make([][]uint64, len(slots))
	for i := range out {
		out[i] = make([]uint64, st.N)
	}
	if st.cols == nil {
		for _, col := range out {
			copy(col, st.Values)
		}
		return out
	}
	offs := make([]int, len(slots))
	for i, k := range slots {
		offs[i] = st.slotOff(k)
	}
	cols, bw := st.cols, st.bw
	parallel.ForRange(st.N, parallel.BlockGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			vb := v * bw
			for i, off := range offs {
				out[i][v] = cols[off+vb]
			}
		}
	})
	return out
}

// ColumnView returns slot k's values as a zero-copy view when the
// column is stored contiguously — only K=1 states qualify (the
// slot-blocked K>1 storage strides its columns). The view aliases the
// state. On ok=false, callers fall back to Column (a copy) or StrideView
// (zero-copy strided access).
func (st *State) ColumnView(k int) (col []uint64, ok bool) {
	if st.cols == nil && st.K == 1 {
		return st.Values[:st.N], true
	}
	return nil, false
}

// StrideView returns slot k's values as a zero-copy strided view valid
// at every width: the value of (v, k) is arr[v*stride+off]. The view
// aliases the state; (arr, stride, off) feed triangle's strided
// Δ-initialization directly. K=1 states return (Values, 1, 0); K>1
// states return the slab with the block stride (blockWords(K)).
func (st *State) StrideView(k int) (arr []uint64, stride, off int) {
	if st.cols != nil {
		return st.cols, st.bw, st.slotOff(k)
	}
	return st.Values, 1, 0
}

// StrideViews is StrideView for every slot at once — arr and stride are
// the same for all of a state's slots, only the offset differs: the
// value of (v, k) is arr[v*stride+offs[k]].
func (st *State) StrideViews() (arr []uint64, stride int, offs []int) {
	offs = make([]int, st.K)
	for k := range offs {
		arr, stride, offs[k] = st.StrideView(k)
	}
	return arr, stride, offs
}

// Interleaved materializes the stride-K interleaved array
// (out[v*K+k] = Value(v,k)) — the wire format of batched query results.
// K=1 states return Values itself (no copy); K>1 states gather.
func (st *State) Interleaved() []uint64 {
	if st.cols == nil {
		return st.Values
	}
	K, cols, bw := st.K, st.cols, st.bw
	soff := make([]int, K)
	for k := range soff {
		soff[k] = st.slotOff(k)
	}
	out := make([]uint64, st.N*K)
	parallel.ForRange(st.N, parallel.BlockGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			vb, row := v*bw, out[v*K:v*K+K]
			for k := range row {
				row[k] = cols[soff[k]+vb]
			}
		}
	})
	return out
}

// CopySlot overwrites slot k's values with slot j of src over the vertices
// both states hold, whatever either's width.
func (st *State) CopySlot(k int, src *State, j int) {
	dst, ds, do := st.StrideView(k)
	arr, ss, so := src.StrideView(j)
	parallel.ForRange(min(st.N, src.N), parallel.BlockGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			dst[v*ds+do] = arr[v*ss+so]
		}
	})
}

// Clone returns a deep copy of the state's values (used to snapshot
// standing-query results before speculative work); the copy records no
// changes.
func (st *State) Clone() *State {
	out := &State{P: st.P, K: st.K, N: st.N, padN: st.padN, bw: st.bw}
	if st.Values != nil {
		out.Values = append([]uint64(nil), st.Values...)
	}
	if st.cols != nil {
		out.cols = append([]uint64(nil), st.cols...)
	}
	return out
}

// Grow extends the state to n vertices (new vertices at init value).
func (st *State) Grow(n int) {
	if n <= st.N {
		return
	}
	if st.Changed != nil {
		st.Changed = append(st.Changed, make([]uint64, n-len(st.Changed))...)
	}
	init := st.P.InitValue()
	if st.cols != nil {
		padN, bw := padVerts(n), st.bw
		blocks := (st.K + bw - 1) / bw
		oldBS, newBS := st.padN*bw, padN*bw
		cols := make([]uint64, blocks*newBS)
		for b := 0; b < blocks; b++ {
			copy(cols[b*newBS:], st.cols[b*oldBS:b*oldBS+st.N*bw])
			fill(cols[b*newBS+st.N*bw:(b+1)*newBS], init)
		}
		st.cols = cols
		st.padN = padN
		st.N = n
		return
	}
	vals := make([]uint64, n)
	copy(vals, st.Values)
	fill(vals[st.N:], init)
	st.N = n
	st.Values = vals
}

// denseFraction controls the Ligra-style frontier representation switch:
// when more than n/denseFraction vertices are active, the round walks the
// frontier's membership bits in vertex order instead of running its
// member list — cheaper and more cache-friendly for the huge mid-BFS
// frontiers of power-law graphs. It is a variable only so tests can pin
// one representation and compare results across the switch.
var denseFraction = 16

// denseGrainWords is the number of membership words (64 vertices each) a
// worker claims at a time in a dense round.
const denseGrainWords = 2

// onIteration, when non-nil, observes each RunPush iteration's frontier
// representation. Test hook; nil in production.
var onIteration func(dense bool)

// workCounter accumulates one worker's engine statistics and its share of
// the next frontier, and holds the worker's kernel scratch. Workers index
// a []workCounter by the stable id parallel.ForRangeID hands them, so the
// hot loop needs no atomic adds and no shared queue; the pad keeps
// neighboring workers' counters on separate cache lines.
type workCounter struct {
	acts, relax, upd int64
	hoists, gates    int64
	// queue lists the vertices this worker added to the next frontier
	// (frontier.add).
	queue []graph.VertexID
	// dsts and ws are the arc round's run laid out as a span (arcSpan),
	// reused from run to run.
	dsts []graph.VertexID
	ws   []graph.Weight
	// blk is the width-K kernel's register block (pushKCtx.hoist).
	blk regBlock
	_   [8]int64
}

// regBlock is a width-K hoist of one vertex: its live slots compacted into
// slots[:n], each with its offset in the slab, its source value and its
// slot bit. Every hoist rewrites it before relaxSpan reads it.
type regBlock struct {
	n     int
	slots [64]hoisted
}

// hoisted is one live slot of a register block.
type hoisted struct {
	off      int
	val, bit uint64
}

func (b *regBlock) live() []hoisted { return b.slots[:b.n] }

// arcSpan lays run's heads and weights out as a span in c's scratch.
func (c *workCounter) arcSpan(run []graph.Edge) ([]graph.VertexID, []graph.Weight) {
	dsts, ws := c.dsts[:0], c.ws[:0]
	for _, a := range run {
		dsts = append(dsts, a.Dst)
		ws = append(ws, a.W)
	}
	c.dsts, c.ws = dsts, ws
	return dsts, ws
}

// frontier is the push loop's active set and the rest of one RunPush
// evaluation's working state, one bookkeeping for every width, recycled
// through a pool: the Table 3 workload runs hundreds of user queries per
// snapshot.
//
// A mark for the next round sets the vertex's bit in next; the worker
// whose TrySet wins appends the vertex to its own queue, so the next
// round's size is the sum of the queue lengths and finding its members
// scans nothing. A sparse round runs the concatenated queues (verts) and
// clears just their bits, so it costs O(active) however large the graph.
// A dense round swaps the bitsets and walks cur's set bits in vertex
// order while the round marks the emptied next. At K=1 the bit is the
// whole activity state. K>1 adds per-vertex slot masks: a slot bit is
// CASed into nextMasks, and the slot that turns the mask nonzero adds the
// vertex; advance moves each member's mask into masks for the round.
type frontier struct {
	next *bitset.Atomic // the next round's members
	cur  *bitset.Atomic // a dense round's members; empty otherwise
	// verts is a sparse round's member list.
	verts []graph.VertexID
	// wide selects the K>1 slot masks, masks[v] being v's active slots in
	// this round and nextMasks[v] in the next. A pooled frontier keeps
	// them (zeroed) through K=1 runs, which do not read them; a frontier
	// that only ever ran K=1 has none.
	wide             bool
	masks, nextMasks []uint64
	counters         []workCounter
}

var frontierPool sync.Pool

// getFrontier returns a frontier able to hold n vertices at width k, with
// both bitsets empty, every queue empty, every mask zero and the counters
// at zero. RunPush always returns its frontier drained (advance empties
// the queues and the next bits it moves, a dense round resets cur, and
// the kernels clear each mask they consume), so pooled frontiers are
// handed out without an O(N) re-zeroing sweep.
func getFrontier(n, k int) *frontier {
	f, _ := frontierPool.Get().(*frontier)
	if f == nil || f.next.Len() < n {
		// None pooled, or too small for this graph: allocate at the new size.
		f = &frontier{next: bitset.NewAtomic(n), cur: bitset.NewAtomic(n)}
	}
	f.wide = k > 1
	if f.wide && len(f.masks) < n {
		f.masks, f.nextMasks = make([]uint64, n), make([]uint64, n)
	}
	if w := parallel.MaxWorkers(); len(f.counters) < w {
		f.counters = make([]workCounter, w)
	}
	for i := range f.counters {
		c := &f.counters[i]
		c.acts, c.relax, c.upd, c.hoists, c.gates = 0, 0, 0, 0, 0
	}
	return f
}

// add puts v in the next round; the first of concurrent adds of v queues
// it.
func (f *frontier) add(c *workCounter, v graph.VertexID) {
	if f.next.TrySet(int(v)) {
		c.queue = append(c.queue, v)
	}
}

// addMask ors slot bits m into v's next-round mask (K>1) and adds v when
// the mask was empty.
func (f *frontier) addMask(c *workCounter, v graph.VertexID, m uint64) {
	addr := &f.nextMasks[v]
	for {
		old := atomic.LoadUint64(addr)
		if old&m == m {
			return
		}
		if atomic.CompareAndSwapUint64(addr, old, old|m) {
			if old == 0 {
				f.add(c, v)
			}
			return
		}
	}
}

// advance turns the marks of the round just run into the next round and
// returns its size and representation. changed, when non-nil, receives
// each member's marked slots (State.Changed): a member was marked because
// its value at those slots improved.
func (f *frontier) advance(n int, changed []uint64) (count int, dense bool) {
	for i := range f.counters {
		count += len(f.counters[i].queue)
	}
	dense = count*denseFraction > n
	if dense {
		f.cur, f.next = f.next, f.cur
	}
	f.verts = f.verts[:0]
	for i := range f.counters {
		q := f.counters[i].queue
		if f.wide {
			for _, v := range q {
				m := f.nextMasks[v]
				f.nextMasks[v] = 0
				f.masks[v] = m
				if changed != nil {
					changed[v] |= m
				}
			}
		} else if changed != nil {
			for _, v := range q {
				changed[v] |= 1
			}
		}
		if !dense {
			for _, v := range q {
				f.next.Clear(int(v))
			}
			f.verts = append(f.verts, q...)
		}
		f.counters[i].queue = q[:0]
	}
	return count, dense
}

// forDense calls visit for every member of a dense round in ascending
// vertex order within each worker's chunk, split across workers by
// membership word.
func (f *frontier) forDense(n int, visit func(c *workCounter, v graph.VertexID)) {
	parallel.ForRangeID((n+63)/64, denseGrainWords, func(wid, lo, hi int) {
		c := &f.counters[wid]
		for wi := lo; wi < hi; wi++ {
			for w := f.cur.Word(wi); w != 0; w &= w - 1 {
				visit(c, graph.VertexID(wi*64+bits.TrailingZeros64(w)))
			}
		}
	})
}

// RunPush evaluates the state to convergence with the push model, starting
// from the given seed vertices with the given per-seed active masks
// (bit k set = query slot k active at that seed). Seeds may repeat (their
// masks are ored) and a zero mask seeds nothing. Values must already hold
// the desired initial values — callers choose between full evaluation
// (init values + sources), Δ-based initialization, or resumed incremental
// state. Returns work statistics.
func (st *State) RunPush(g ArcView, seeds []graph.VertexID, seedMasks []uint64) Stats {
	stats, _ := st.RunPushCtx(context.Background(), g, seeds, seedMasks)
	return stats
}

// RunPushCtx is RunPush with cooperative cancellation: ctx.Err() is
// checked once per superstep (cheap — no per-edge or per-vertex cost), and
// a cancellation or deadline stops the evaluation at the next boundary
// with a *CanceledError. The returned Stats describe the work completed.
// The state's values are left partially improved: every value is still a
// sound, monotonically-reached bound, just not yet the converged result,
// so a canceled user query never corrupts anything — the state belongs to
// the query and is simply discarded.
//
// Kernel selection follows the width: K>1 states run the width-K kernel
// (hoisted source blocks, devirtualized relaxations), K=1 states its
// scalar specialization.
//
// Several RunPushCtx calls may run concurrently on one state, each over
// its own view: every value word is read with an atomic load and improved
// by CAS, and all other working state is per call, so by Theorem 4.4 the
// shared values only ever move monotonically toward the fixpoint. The
// views must not outgrow the state — Grow is not safe against a running
// kernel.
func (st *State) RunPushCtx(ctx context.Context, g ArcView, seeds []graph.VertexID, seedMasks []uint64) (Stats, error) {
	return st.runPush(ctx, g, seeds, seedMasks, nil)
}

// RunPushArcs re-stabilizes a state that is a fixpoint of g without the
// given arcs — g is the graph those arcs were inserted into, arcs sorted
// by Src at the weights g holds (ArcDelta.InsertedArcs). Round 0 relaxes
// each arc once, tail→head at all K slots; the heads it improves are the
// first frontier and the push continues from them as usual. An old arc
// whose tail did not move still satisfies its inequality, so nothing else
// needs looking at: the cost is the arcs plus what they move. An empty
// list costs nothing. Round 0 counts as one iteration, its work as
// relaxations, updates and one hoist per distinct tail — no vertex
// function runs in it, so it adds no activations.
func (st *State) RunPushArcs(g ArcView, arcs []graph.Edge) Stats {
	stats, _ := st.RunPushArcsCtx(context.Background(), g, arcs)
	return stats
}

// RunPushArcsCtx is RunPushArcs with cooperative cancellation (see
// RunPushCtx).
func (st *State) RunPushArcsCtx(ctx context.Context, g ArcView, arcs []graph.Edge) (Stats, error) {
	return st.runPush(ctx, g, nil, nil, arcs)
}

// runPush is the push model's one loop. The first superstep comes from one
// of two producers: the seed frontier (processed like every later one), or
// arcs, relaxed individually by the kernel's arc round — both mark the
// next frontier the same way.
func (st *State) runPush(ctx context.Context, g ArcView, seeds []graph.VertexID, seedMasks []uint64, arcs []graph.Edge) (Stats, error) {
	st.checkStorage()
	n := g.NumVertices()
	if n > st.N {
		st.Grow(n)
	}
	var stats Stats
	K := st.K
	p := st.P
	f := getFrontier(st.N, K)
	counters := f.counters

	for i, v := range seeds {
		switch m := seedMasks[i]; {
		case m == 0:
		case K > 1:
			f.addMask(&counters[0], v, m)
		default:
			f.add(&counters[0], v)
		}
	}

	// Pick the kernel for this run (see RunPushCtx).
	var process func(c *workCounter, u graph.VertexID)
	var tail func(c *workCounter, run []graph.Edge)
	if K > 1 {
		kc := &pushKCtx{
			g: g, p: p,
			K: K, cols: st.cols, stride: st.bw,
			f: f,
		}
		_, _, kc.soff = st.StrideViews()
		kc.spec, kc.hasSpec = KernelSpecOf(p)
		process, tail = kc.process, kc.tail
	} else {
		k1 := &push1Ctx{g: g, p: p, vals: st.Values, f: f}
		k1.spec, k1.hasSpec = KernelSpecOf(p)
		process, tail = k1.process, k1.tail
	}

	var canceled error
	// The seeds are the first frontier; they moved nothing.
	active, dense := f.advance(n, nil)
	arcRound := len(arcs) > 0
	for active > 0 || arcRound {
		if err := ctx.Err(); err != nil {
			canceled = &CanceledError{Iterations: stats.Iterations, Cause: err}
			break
		}
		stats.Iterations++
		if onIteration != nil {
			onIteration(dense)
		}
		switch {
		case arcRound:
			arcRound = false
			forArcRuns(arcs, func(wid int, run []graph.Edge) { tail(&counters[wid], run) })
		case dense:
			stats.DenseIterations++
			f.forDense(n, process)
			f.cur.Reset()
		default:
			verts := f.verts
			parallel.ForRangeID(len(verts), 64, func(wid, start, end int) {
				c := &counters[wid]
				for _, v := range verts[start:end] {
					process(c, v)
				}
			})
		}
		active, dense = f.advance(n, st.Changed)
	}
	for i := range counters {
		stats.Activations += counters[i].acts
		stats.Relaxations += counters[i].relax
		stats.Updates += counters[i].upd
		stats.Hoists += counters[i].hoists
		stats.GateSkips += counters[i].gates
	}
	// The pool invariant is that a frontier is handed back drained. A
	// canceled run abandons a live one (queued members, set bits, masks),
	// so it is dropped rather than drained — cancellations are rare
	// enough that losing the buffers costs nothing.
	if canceled == nil {
		frontierPool.Put(f)
	}
	return stats, canceled
}

// casImprove lowers (in the problem's order) *addr to cand, returning
// whether the stored value changed.
func casImprove(addr *uint64, cand uint64, p Problem) bool {
	for {
		old := atomic.LoadUint64(addr)
		if !p.Better(cand, old) {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, cand) {
			return true
		}
	}
}

// Run performs a full (from-scratch) K-wide push evaluation with one
// source per query slot. It is the non-incremental baseline of Table 3.
func Run(g ArcView, p Problem, sources []graph.VertexID) (*State, Stats) {
	st, stats, _ := RunCtx(context.Background(), g, p, sources)
	return st, stats
}

// RunCtx is Run with cooperative cancellation (see RunPushCtx). On
// cancellation the partial state is still returned alongside the error.
func RunCtx(ctx context.Context, g ArcView, p Problem, sources []graph.VertexID) (*State, Stats, error) {
	st := NewState(p, g.NumVertices(), len(sources))
	for k, s := range sources {
		st.SetSource(s, k)
	}
	seeds, masks := SourceSeeds(sources)
	stats, err := st.RunPushCtx(ctx, g, seeds, masks)
	return st, stats, err
}

// SourceSeeds builds the first frontier of a width-len(sources)
// evaluation whose slot k starts at sources[k]: one seed per distinct
// source, its mask carrying the bit of every slot that names it.
func SourceSeeds(sources []graph.VertexID) (seeds []graph.VertexID, masks []uint64) {
	seeds = make([]graph.VertexID, 0, len(sources))
	masks = make([]uint64, 0, len(sources))
	index := make(map[graph.VertexID]int, len(sources))
	for k, s := range sources {
		if i, ok := index[s]; ok {
			masks[i] |= 1 << uint(k)
			continue
		}
		index[s] = len(seeds)
		seeds = append(seeds, s)
		masks = append(masks, 1<<uint(k))
	}
	return seeds, masks
}
