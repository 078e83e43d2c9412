package streamgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tripoline/internal/graph"
)

// mergeRunReference is mergeRun element by element: it writes the span
// (dsts, ws) merged with the arcs of run, or with them taken out, into adj
// and wgt, one arc at a time. mergeRun and mergeBack are held to it.
func mergeRunReference(adj []graph.VertexID, wgt []graph.Weight, dsts []graph.VertexID, ws []graph.Weight, run []graph.Edge, out bool) {
	i, j := 0, 0
	for k := 0; k < len(adj); {
		switch {
		case j == len(run) || (i < len(dsts) && dsts[i] < run[j].Dst):
			adj[k], wgt[k] = dsts[i], ws[i]
			i++
			k++
		case out:
			i++
			j++
		default:
			adj[k], wgt[k] = run[j].Dst, run[j].W
			j++
			k++
		}
	}
}

// TestMergeRunMatchesReference holds mergeRun, and mergeBack, the merge in
// place from the back, bit for bit to the element-by-element reference on
// random spans and runs: empty spans, runs entirely before or after the
// span, interleaved runs and hub-sized spans, merged in and taken out —
// the take-out also in place, over the span itself.
func TestMergeRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 3000; trial++ {
		var size int
		switch trial % 4 {
		case 0:
			size = 0
		case 1, 2:
			size = 1 + rng.Intn(12)
		case 3:
			size = 500 + rng.Intn(4000) // a hub
		}
		k := 1 + rng.Intn(max(1, min(size, 40)+3))
		layout := []string{"before", "after", "interleaved"}[rng.Intn(3)]
		label := fmt.Sprintf("trial %d: span %d, run %d %s", trial, size, k, layout)

		// Distinct destinations, the span's and the run's apart, each arc
		// at its own weight.
		var dsts, runDsts []graph.VertexID
		switch layout {
		case "before", "after":
			spanLo, runLo := 10_000, 0
			if layout == "after" {
				spanLo, runLo = 0, 10_000
			}
			dsts = distinct(rng, size, spanLo, 10_000)
			runDsts = distinct(rng, k, runLo, 10_000)
		default:
			all := distinct(rng, size+k, 0, 20_000)
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			dsts, runDsts = all[:size], all[size:]
			slices.Sort(dsts)
			slices.Sort(runDsts)
		}
		ws := weights(rng, len(dsts))
		run := make([]graph.Edge, len(runDsts))
		for i, d := range runDsts {
			run[i] = graph.Edge{Src: 7, Dst: d, W: graph.Weight(rng.Uint32())}
		}

		// Merged in.
		want := make([]graph.VertexID, size+k)
		wantW := make([]graph.Weight, size+k)
		mergeRunReference(want, wantW, dsts, ws, run, false)
		got := make([]graph.VertexID, size+k)
		gotW := make([]graph.Weight, size+k)
		mergeRun(got, gotW, dsts, ws, run, false)
		requireSameSpan(t, label+" merged in", got, gotW, want, wantW)
		back := append(slices.Clone(dsts), make([]graph.VertexID, k)...)
		backW := append(slices.Clone(ws), make([]graph.Weight, k)...)
		mergeBack(back, backW, int64(size), run)
		requireSameSpan(t, label+" merged in from the back", back, backW, want, wantW)

		// Taken out: a random part of the span.
		if size == 0 {
			continue
		}
		var gone []graph.Edge
		for _, d := range dsts {
			if rng.Intn(3) == 0 {
				gone = append(gone, graph.Edge{Src: 7, Dst: d})
			}
		}
		kept := size - len(gone)
		want, wantW = want[:kept], wantW[:kept]
		mergeRunReference(want, wantW, dsts, ws, gone, true)
		mergeRun(got[:kept], gotW[:kept], dsts, ws, gone, true)
		requireSameSpan(t, label+" taken out", got[:kept], gotW[:kept], want, wantW)
		inPlace, inPlaceW := slices.Clone(dsts), slices.Clone(ws)
		mergeRun(inPlace[:kept], inPlaceW[:kept], inPlace, inPlaceW, gone, true)
		requireSameSpan(t, label+" taken out in place", inPlace[:kept], inPlaceW[:kept], want, wantW)
	}
}

// distinct returns n distinct sorted values from [lo, lo+span).
func distinct(rng *rand.Rand, n, lo, span int) []graph.VertexID {
	seen := map[int]bool{}
	out := make([]graph.VertexID, 0, n)
	for len(out) < n {
		if v := lo + rng.Intn(span); !seen[v] {
			seen[v] = true
			out = append(out, graph.VertexID(v))
		}
	}
	slices.Sort(out)
	return out
}

func weights(rng *rand.Rand, n int) []graph.Weight {
	ws := make([]graph.Weight, n)
	for i := range ws {
		ws[i] = graph.Weight(rng.Uint32())
	}
	return ws
}

func requireSameSpan(t *testing.T, label string, got []graph.VertexID, gotW []graph.Weight, want []graph.VertexID, wantW []graph.Weight) {
	t.Helper()
	if !slices.Equal(got, want) || !slices.Equal(gotW, wantW) {
		t.Fatalf("%s: got %v/%v, want %v/%v", label, got, gotW, want, wantW)
	}
}
