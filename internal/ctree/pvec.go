package ctree

// VertexTable is a persistent (immutable, path-copied) vector mapping dense
// vertex IDs to edge Trees. It plays the role of Aspen's vertex tree: each
// streaming-graph version holds one VertexTable, and deriving a new version
// copies only the O(log n) trie path of each updated vertex.
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

// Set returns a table identical to v except vertex i maps to t.
// i must be < Len().
func (v VertexTable) Set(i int, t Tree) VertexTable {
	if i < 0 || i >= v.length {
		panic("ctree: VertexTable.Set out of range")
	}
	return VertexTable{root: vtSet(v.root, v.depth, i, t), length: v.length, depth: v.depth}
}

func vtSet(n *vtNode, depth, i int, t Tree) *vtNode {
	out := &vtNode{}
	if n != nil {
		*out = *n
	}
	if depth == 1 {
		if out.leaves == nil {
			out.leaves = make([]Tree, vtFan)
		} else {
			l := make([]Tree, vtFan)
			copy(l, out.leaves)
			out.leaves = l
		}
		out.leaves[i&vtMask] = t
		return out
	}
	slot := (i >> (uint(depth-1) * vtBits)) & vtMask
	out.children[slot] = vtSet(out.children[slot], depth-1, i, t)
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
