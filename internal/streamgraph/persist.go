package streamgraph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"tripoline/internal/graph"
)

// Binary snapshot persistence. The format difference-encodes each
// adjacency list (destinations are sorted, so gaps are small on
// power-law graphs), the same idea as Aspen's compressed chunks, applied
// at rest:
//
//	magic "TRPL" | version u8 | directed u8 | n uvarint | m uvarint
//	per vertex: degree uvarint, then (dstGap uvarint, weight uvarint)*
//
// Save writes a snapshot; Load reconstructs a Graph whose single version
// holds the same edges. Standing query state is deliberately not
// persisted: re-enabling problems after Load re-evaluates them, which is
// bounded work and avoids versioning every handler's internals.

const (
	persistMagic   = "TRPL"
	persistVersion = 1
)

// ErrRetired reports that a snapshot's mirror was retired and drained
// before Save could pin it; nothing was written.
var ErrRetired = errors.New("streamgraph: snapshot retired before it could be saved")

// Save writes the snapshot to w in the compressed binary format. The
// snapshot's mirror is pinned for the write; a retired snapshot whose
// mirror is already drained fails with ErrRetired.
func Save(w io.Writer, s *Snapshot, directed bool) error {
	f := s.Flatten()
	if !f.Retain() {
		return fmt.Errorf("version %d: %w", s.Version(), ErrRetired)
	}
	defer f.Release()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return err
	}
	dir := byte(0)
	if directed {
		dir = 1
	}
	if err := bw.WriteByte(persistVersion); err != nil {
		return err
	}
	if err := bw.WriteByte(dir); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(s.NumVertices())); err != nil {
		return err
	}
	if err := putUvarint(uint64(s.NumEdges())); err != nil {
		return err
	}
	for v := 0; v < s.NumVertices(); v++ {
		dsts, ws := f.OutSpan(graph.VertexID(v))
		if err := putUvarint(uint64(len(dsts))); err != nil {
			return err
		}
		prev := uint64(0)
		for i, d := range dsts {
			// Destinations are sorted; gap encoding.
			if err := putUvarint(uint64(d) - prev); err != nil {
				return err
			}
			if err := putUvarint(uint64(ws[i])); err != nil {
				return err
			}
			prev = uint64(d)
		}
	}
	return bw.Flush()
}

// Load reads a graph previously written by Save and returns a fresh
// streaming Graph at version 1 containing its edges.
func Load(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("streamgraph: reading magic: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("streamgraph: bad magic %q", magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != persistVersion {
		return nil, fmt.Errorf("streamgraph: unsupported format version %d", ver)
	}
	dir, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	n64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("streamgraph: reading vertex count: %w", err)
	}
	m64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("streamgraph: reading edge count: %w", err)
	}
	n := int(n64)
	edges := make([]graph.Edge, 0, min(m64, 1<<20))
	var total uint64
	for v := 0; v < n; v++ {
		deg, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("streamgraph: vertex %d degree: %w", v, err)
		}
		prev := uint64(0)
		for i := uint64(0); i < deg; i++ {
			gap, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("streamgraph: vertex %d arc %d: %w", v, i, err)
			}
			wgt, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("streamgraph: vertex %d weight %d: %w", v, i, err)
			}
			prev += gap
			edges = append(edges, graph.Edge{
				Src: graph.VertexID(v), Dst: graph.VertexID(prev), W: graph.Weight(wgt),
			})
			total++
		}
	}
	if total != m64 {
		return nil, fmt.Errorf("streamgraph: arc count mismatch: read %d, header says %d", total, m64)
	}
	// The file stores arcs (post-mirroring), so they load as one batch
	// into a directed graph, whatever the logical directedness, which is
	// restored after: version 1.
	g := New(n, true)
	g.InsertEdges(edges)
	g.directed = dir == 1
	return g, nil
}
