package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

// TestPinRacesBatchesAndHistory races Δ-queries (QueryCtx), full queries
// (QueryFullCtx), both through barrier.pinLatest, and historical queries
// (QueryAt, through barrier.pinAt) against a writer applying insertions
// and deletions, with history rings of one to four entries. With one
// entry every publish evicts the snapshot a reader may be about to pin. Every pin is taken under the ring's read lock and cannot fail (a
// failed retain panics); every answer must equal the oracle's on the graph
// at the version it reports, and a QueryAt may only miss a version that
// fell out of the ring. Under -race this is the pin/retire/evict protocol
// of mirrors that are the store.
func TestPinRacesBatchesAndHistory(t *testing.T) {
	const n = 96
	for capacity := 1; capacity <= 4; capacity++ {
		t.Run(fmt.Sprintf("S=1/history=%d", capacity), func(t *testing.T) {
			sys := enabled(t, NewSystem(streamgraph.New(n, true), 4), "SSSP")
			sys.EnableHistory(capacity)
			ref := streamgraph.New(n, true)

			var mu sync.Mutex
			csrs := map[uint64]*graph.CSR{sys.Version(): ref.Acquire().CSR(true)}
			csrAt := func(v uint64) *graph.CSR {
				mu.Lock()
				defer mu.Unlock()
				return csrs[v]
			}
			check := func(label string, u graph.VertexID, res *QueryResult) {
				csr := csrAt(res.Version)
				if csr == nil {
					t.Errorf("%s: version %d never published", label, res.Version)
					return
				}
				want := oracle.BestPath(csr, props.SSSP{}, u)
				for x := range want {
					if res.Values[x] != want[x] {
						t.Errorf("%s(%d) at v%d: value[%d] = %d, oracle %d", label, u, res.Version, x, res.Values[x], want[x])
						return
					}
				}
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						u := graph.VertexID((r*37 + i*11) % n)
						res, err := sys.Query("SSSP", u)
						if err != nil {
							t.Error(err)
							return
						}
						check("Query", u, res)
						if res, err = sys.QueryFullCtx(context.Background(), "SSSP", u); err != nil {
							t.Error(err)
							return
						}
						check("QueryFull", u, res)
						vs := sys.HistoryVersions()
						v := vs[i%len(vs)]
						res, err = sys.QueryAt(v, "SSSP", u)
						switch {
						case errors.Is(err, ErrNoSuchVersion):
							// Evicted since HistoryVersions: a legal miss.
						case err != nil:
							t.Error(err)
							return
						default:
							if res.Version != v {
								t.Errorf("QueryAt(%d) answered at v%d", v, res.Version)
							}
							check("QueryAt", u, res)
						}
					}
				}(r)
			}
			rng := rand.New(rand.NewSource(int64(17 + capacity)))
			for b := 0; b < 24; b++ {
				// The reference records the next version before the
				// system publishes it, so readers find every version.
				batch := randArcs(rng, n, 60)
				del := b%4 == 3
				if del {
					batch = batch[:20]
					ref.DeleteEdges(batch)
				} else {
					ref.InsertEdges(batch)
				}
				mu.Lock()
				csrs[sys.Version()+1] = ref.Acquire().CSR(true)
				mu.Unlock()
				if del {
					sys.ApplyDeletions(batch)
				} else {
					sys.ApplyBatch(batch)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
