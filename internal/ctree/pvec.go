package ctree

// VertexTable is a persistent (immutable, path-copied) vector mapping dense
// vertex IDs to edge Trees. It plays the role of Aspen's vertex tree: each
// streaming-graph version holds one VertexTable, and deriving a new version
// copies, once, each trie node on the path to an updated vertex (SetMany):
// at most O(log n) nodes per updated vertex, fewer where their paths share
// nodes.
//
// The trie has fanout 32; leaves hold 32 consecutive Trees. The zero value
// is an empty table of length 0.
type VertexTable struct {
	root   *vtNode
	length int
	depth  int // number of trie levels (0 for empty)
}

const (
	vtBits = 5
	vtFan  = 1 << vtBits
	vtMask = vtFan - 1
)

// vtNode is either an interior node (children non-nil) or a leaf
// (leaves non-nil). Nodes are immutable after construction.
type vtNode struct {
	children [vtFan]*vtNode
	leaves   []Tree // len vtFan at leaf level
}

// NewVertexTable returns a table of n empty trees.
func NewVertexTable(n int) VertexTable {
	t := VertexTable{}
	return t.Grow(n)
}

// Len returns the number of vertices in the table.
func (v VertexTable) Len() int { return v.length }

// capacityFor returns the depth needed to address n slots.
func capacityFor(n int) int {
	if n <= 0 {
		return 0
	}
	d := 1
	cap := vtFan
	for cap < n {
		cap <<= vtBits
		d++
	}
	return d
}

// Get returns the edge tree of vertex i. Vertices never touched since
// creation report the empty tree.
func (v VertexTable) Get(i int) Tree {
	if i < 0 || i >= v.length {
		return Empty()
	}
	n := v.root
	for level := v.depth - 1; level >= 1; level-- {
		if n == nil {
			return Empty()
		}
		n = n.children[(i>>(uint(level)*vtBits))&vtMask]
	}
	if n == nil || n.leaves == nil {
		return Empty()
	}
	return n.leaves[i&vtMask]
}

// SetMany returns a table identical to v except that vertex idx[k] maps
// to trees[k]. idx must be sorted ascending, unique and below Len(). It is
// one pass over idx: every trie node on a touched path is copied once,
// however many of the updated vertices lie below it, and v is unchanged.
func (v VertexTable) SetMany(idx []int, trees []Tree) VertexTable {
	if len(idx) != len(trees) {
		panic("ctree: VertexTable.SetMany with unequal index and tree counts")
	}
	if len(idx) == 0 {
		return v
	}
	for k, i := range idx {
		if i < 0 || i >= v.length || (k > 0 && i <= idx[k-1]) {
			panic("ctree: VertexTable.SetMany indices out of range or not ascending")
		}
	}
	return VertexTable{root: vtSetMany(v.root, v.depth, idx, trees), length: v.length, depth: v.depth}
}

// vtSetMany copies n, a node at the given depth, with the vertices idx —
// sorted, all below n — set to trees: at a leaf the slots are written,
// above one each run of idx that shares a child recurses into that child.
func vtSetMany(n *vtNode, depth int, idx []int, trees []Tree) *vtNode {
	out := &vtNode{}
	if n != nil {
		*out = *n
	}
	if depth == 1 {
		l := make([]Tree, vtFan)
		copy(l, out.leaves)
		for k, i := range idx {
			l[i&vtMask] = trees[k]
		}
		out.leaves = l
		return out
	}
	shift := uint(depth-1) * vtBits
	for lo := 0; lo < len(idx); {
		slot := (idx[lo] >> shift) & vtMask
		hi := lo + 1
		for hi < len(idx) && (idx[hi]>>shift)&vtMask == slot {
			hi++
		}
		out.children[slot] = vtSetMany(out.children[slot], depth-1, idx[lo:hi], trees[lo:hi])
		lo = hi
	}
	return out
}

// Grow returns a table with length at least n (new slots hold empty trees).
// Growing never copies existing nodes beyond a possible new root chain.
func (v VertexTable) Grow(n int) VertexTable {
	if n <= v.length {
		return v
	}
	d := capacityFor(n)
	root := v.root
	for depth := v.depth; depth < d; depth++ {
		if root != nil {
			nr := &vtNode{}
			nr.children[0] = root
			root = nr
		}
	}
	if d < 1 && n > 0 {
		d = 1
	}
	return VertexTable{root: root, length: n, depth: d}
}
