package allpairs

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"testing"

	"bayeslsh/internal/testutil"
	"bayeslsh/internal/vector"
)

// sortedKeys is the map+sort read the probes replaced.
func sortedKeys(seen map[int32]struct{}) []int32 {
	if len(seen) == 0 {
		return nil
	}
	ids := make([]int32, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// denseResult reports whether reading ids out of an id-set takes the
// word scan rather than the sort (see pair.IDSet.AppendAscending).
func denseResult(ids []int32) bool {
	if len(ids) == 0 {
		return false
	}
	m, span := len(ids), 64*(int(ids[len(ids)-1]>>6)-int(ids[0]>>6)+1)
	return m*bits.Len(uint(m)) >= span/8
}

// TestProbesMatchReference checks Index.Probe, View.Probe and
// Delta.Probe against map+sort references — the index's own probe
// emits for the first two, every delta vector below the visibility
// bound sharing a feature with the query for the third — at a low
// threshold, whose candidates cover most of the corpus (the id-set's
// word scan), and at a high one (its sort); then repeats every probe
// from 8 goroutines sharing the structures, each result equal to its
// sequential answer.
func TestProbesMatchReference(t *testing.T) {
	const n = 600
	c := testutil.SmallTextCorpus(t, n, 7)
	queries := append(testutil.SmallTextCorpus(t, 40, 8).Vecs, c.Vecs[:40]...)
	delta := NewDelta()
	for id, v := range c.Vecs {
		delta.Add(int32(id), v)
	}
	deltaWant := func(q vector.Vector, vis int) []int32 {
		seen := make(map[int32]struct{})
		for id, v := range c.Vecs[:vis] {
			for _, f := range q.Ind {
				if _, ok := slices.BinarySearch(v.Ind, f); ok {
					seen[int32(id)] = struct{}{}
					break
				}
			}
		}
		return sortedKeys(seen)
	}
	for _, th := range []float64{0.05, 0.7} {
		t.Run(fmt.Sprintf("t=%v", th), func(t *testing.T) {
			ix, err := BuildIndex(c, th)
			if err != nil {
				t.Fatal(err)
			}
			view, err := OpenView(viewSection(t, ix))
			if err != nil {
				t.Fatal(err)
			}
			if err := view.Validate(); err != nil {
				t.Fatal(err)
			}
			type probe struct {
				name string
				vis  int
				run  func(q vector.Vector) []int32
				want func(q vector.Vector) []int32
			}
			indexWant := func(q vector.Vector) []int32 {
				seen := make(map[int32]struct{})
				ps := &probeState{accs: make([]float64, n)}
				ix.s.probe(q, math.MaxInt32, ps, nil, func(y int32, _ float64) { seen[y] = struct{}{} })
				return sortedKeys(seen)
			}
			probes := []probe{
				{"Index", n, ix.Probe, indexWant},
				{"View", n, view.Probe, indexWant},
			}
			for _, vis := range []int{0, 1, n / 2, n} {
				probes = append(probes, probe{fmt.Sprintf("Delta/vis=%d", vis), vis,
					func(q vector.Vector) []int32 { return delta.Probe(q, int32(vis)) },
					func(q vector.Vector) []int32 { return deltaWant(q, vis) }})
			}
			dense, sparse := 0, 0
			seq := make([][][]int32, len(probes))
			for p, pr := range probes {
				for i, q := range queries {
					got, want := pr.run(q), pr.want(q)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: query %d: probe %v, want %v", pr.name, i, got, want)
					}
					if len(got) > 0 && denseResult(got) {
						dense++
					} else if len(got) > 0 {
						sparse++
					}
					seq[p] = append(seq[p], got)
				}
			}
			if th < 0.5 && dense == 0 || th > 0.5 && sparse == 0 {
				t.Fatalf("t=%v: %d dense and %d sparse results: the intended read never ran", th, dense, sparse)
			}
			var wg sync.WaitGroup
			errs := make(chan string, 8)
			for g := range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for p, pr := range probes {
						for i := g % 2; i < len(queries); i += 2 {
							if got := pr.run(queries[i]); !slices.Equal(got, seq[p][i]) {
								errs <- fmt.Sprintf("%s: goroutine %d query %d: %v, sequential %v", pr.name, g, i, got, seq[p][i])
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
		})
	}
}

// TestDeltaAddRejectsNonIncreasingIDs pins the precondition Probe's
// visibility cut relies on: ids are added in increasing order.
func TestDeltaAddRejectsNonIncreasingIDs(t *testing.T) {
	v := vector.FromMap(map[uint32]float64{1: 1})
	d := NewDelta()
	d.Add(0, v)
	d.Add(4, v)
	for _, bad := range []int32{4, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) after 4 did not panic", bad)
				}
			}()
			d.Add(bad, v)
		}()
	}
	d.Add(5, v)
	if got := d.Probe(v, 6); !slices.Equal(got, []int32{0, 4, 5}) {
		t.Fatalf("Probe after rejected adds = %v, want [0 4 5]", got)
	}
}
