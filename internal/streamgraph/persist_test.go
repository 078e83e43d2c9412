package streamgraph

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, directed := range []bool{true, false} {
		edges := gen.Uniform(200, 2500, 16, 61)
		g := New(200, directed)
		g.InsertEdges(edges)
		snap := g.Acquire()

		var buf bytes.Buffer
		if err := Save(&buf, snap, directed); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Directed() != directed {
			t.Fatal("directedness lost")
		}
		ls := loaded.Acquire()
		if ls.NumVertices() != snap.NumVertices() || ls.NumEdges() != snap.NumEdges() {
			t.Fatalf("shape: %d/%d vs %d/%d",
				ls.NumVertices(), ls.NumEdges(), snap.NumVertices(), snap.NumEdges())
		}
		if ls.Version() != 1 {
			t.Fatalf("version=%d", ls.Version())
		}
		for v := 0; v < 200; v++ {
			a1, w1 := snap.OutNeighbors(graph.VertexID(v))
			a2, w2 := ls.OutNeighbors(graph.VertexID(v))
			if len(a1) != len(a2) {
				t.Fatalf("directed=%v vertex %d degree differs", directed, v)
			}
			for i := range a1 {
				if a1[i] != a2[i] || w1[i] != w2[i] {
					t.Fatalf("directed=%v vertex %d arc %d differs", directed, v, i)
				}
			}
		}
	}
}

// TestSaveLoadAfterDeletions round-trips a graph whose mirror went
// through deletions — spans emptied, shrunk and regrown — and an older
// version nobody retired, and refuses a retired one it can no longer pin.
func TestSaveLoadAfterDeletions(t *testing.T) {
	for _, directed := range []bool{true, false} {
		edges := gen.Uniform(120, 1500, 8, 7)
		g := New(120, directed)
		g.InsertEdges(edges)
		older, _ := g.DeleteEdges(edges[:600])
		g.InsertEdges(edges[100:300])
		g.DeleteEdges(edges[900:1000])
		for _, snap := range []*Snapshot{older, g.Acquire()} {
			var buf bytes.Buffer
			if err := Save(&buf, snap, directed); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			ls := loaded.Acquire()
			if loaded.Directed() != directed || ls.NumVertices() != snap.NumVertices() || ls.NumEdges() != snap.NumEdges() {
				t.Fatalf("directed=%v v%d: loaded %d/%d, saved %d/%d", directed, snap.Version(),
					ls.NumVertices(), ls.NumEdges(), snap.NumVertices(), snap.NumEdges())
			}
			for v := 0; v < snap.NumVertices(); v++ {
				a1, w1 := snap.OutNeighbors(graph.VertexID(v))
				a2, w2 := ls.OutNeighbors(graph.VertexID(v))
				if len(a1) != len(a2) {
					t.Fatalf("directed=%v v%d: vertex %d degree %d, loaded %d", directed, snap.Version(), v, len(a1), len(a2))
				}
				for i := range a1 {
					if a1[i] != a2[i] || w1[i] != w2[i] {
						t.Fatalf("directed=%v v%d: vertex %d arc %d differs", directed, snap.Version(), v, i)
					}
				}
			}
		}
		older.RetireFlat()
		if err := Save(&bytes.Buffer{}, older, directed); !errors.Is(err, ErrRetired) {
			t.Fatalf("saving a retired, superseded snapshot: %v, want ErrRetired", err)
		}
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	g := New(5, true)
	var buf bytes.Buffer
	if err := Save(&buf, g.Acquire(), true); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Acquire().NumVertices() != 5 || loaded.Acquire().NumEdges() != 0 {
		t.Fatal("empty graph roundtrip failed")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",             // empty
		"NOPE",         // bad magic
		"TRPL\x63",     // bad version
		"TRPL\x01\x00", // truncated after header
	}
	for _, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Fatalf("garbage %q accepted", in)
		}
	}
}

func TestLoadRejectsTruncatedBody(t *testing.T) {
	g := New(50, true)
	g.InsertEdges(gen.Uniform(50, 400, 8, 7))
	var buf bytes.Buffer
	if err := Save(&buf, g.Acquire(), true); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := Load(bytes.NewReader(full[:len(full)/2])); err == nil {
		t.Fatal("truncated file accepted")
	}
}

func TestSaveCompression(t *testing.T) {
	// Gap+varint encoding should beat the naive 12 bytes/arc on a sorted
	// power-law adjacency.
	cfg := gen.Config{Name: "p", LogN: 13, AvgDegree: 16, Directed: true, Seed: 5}
	g := FromEdges(cfg.N(), gen.RMAT(cfg), true)
	snap := g.Acquire()
	var buf bytes.Buffer
	if err := Save(&buf, snap, true); err != nil {
		t.Fatal(err)
	}
	naive := snap.NumEdges() * 12
	if int64(buf.Len()) >= naive {
		t.Fatalf("no compression: %d bytes vs naive %d", buf.Len(), naive)
	}
}

func TestLoadedGraphIsUsable(t *testing.T) {
	edges := gen.Uniform(100, 900, 8, 9)
	g := New(100, false)
	g.InsertEdges(edges[:800])
	var buf bytes.Buffer
	if err := Save(&buf, g.Acquire(), false); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The restored graph accepts further batches.
	snap, changed := loaded.InsertEdges(edges[800:])
	if len(changed) == 0 || snap.Version() != 2 {
		t.Fatalf("restored graph not streamable: v=%d changed=%d", snap.Version(), len(changed))
	}
}
