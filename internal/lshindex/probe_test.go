package lshindex

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"testing"

	"bayeslsh/internal/snapshot"
)

// refProbe is the map+sort answer the probes replaced, over a brute
// force collision test: every id < vis that collides with the query in
// some band.
func refProbe(vis, l int, collide func(id, band int) bool) []int32 {
	seen := make(map[int32]struct{})
	for id := range vis {
		for band := range l {
			if collide(id, band) {
				seen[int32(id)] = struct{}{}
				break
			}
		}
	}
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

// visibilities are the delta bounds every delta probe is checked at.
func visibilities(n int) []int { return []int{0, 1, n / 2, n} }

// probeCase is one probed structure: its name, a probe of query q at
// visibility vis (vis = n for the heap tables and views), and the
// reference answer.
type probeCase struct {
	name  string
	vis   []int
	probe func(q, vis int) []int32
	want  func(q, vis int) []int32
}

// requireProbes checks every case against its reference for every
// query, sequentially and then from 8 goroutines probing the shared
// structure at once, and that the results exercise the dense read when
// dense is set and the sparse one otherwise.
func requireProbes(t *testing.T, queries int, dense bool, cases []probeCase) {
	t.Helper()
	for _, c := range cases {
		seq := make(map[[2]int][]int32)
		branch := 0
		for _, vis := range c.vis {
			for q := range queries {
				got, want := c.probe(q, vis), c.want(q, vis)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: query %d vis %d: probe %v, want %v", c.name, q, vis, got, want)
				}
				if len(got) > 0 && denseResult(got) == dense {
					branch++
				}
				seq[[2]int{q, vis}] = got
			}
		}
		if branch == 0 {
			t.Fatalf("%s: no result took the dense=%v read", c.name, dense)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, vis := range c.vis {
					for q := g; q < queries; q += 2 {
						if got := c.probe(q, vis); !slices.Equal(got, seq[[2]int{q, vis}]) {
							errs <- fmt.Sprintf("%s: goroutine %d query %d vis %d: %v, sequential %v", c.name, g, q, vis, got, seq[[2]int{q, vis}])
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
	}
}

func bitsView(t *testing.T, tables *BitsTables, n int) *BitsView {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	tables.WriteFixedSection(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	v, err := OpenBitsView(buf.Bytes(), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	return v
}

func minhashView(t *testing.T, tables *MinhashTables, n int) *MinhashView {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	tables.WriteFixedSection(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	v, err := OpenMinhashView(buf.Bytes(), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestBitsProbesMatchReference checks built, stream-decoded and
// section-opened BitsTables and BitsDelta probes against the brute-force map+sort reference, with
// and without multi-probe, at a band width whose buckets hold most of
// the corpus (the id-set's word scan) and at one whose buckets hold
// a few ids (its sort). Queries are fresh random signatures and corpus
// signatures, so every probe finds at least itself in the latter.
func TestBitsProbesMatchReference(t *testing.T) {
	const n, fresh = 1500, 40
	corpus := randomBitSigs(n, 128, 11)
	queries := append(randomBitSigs(fresh, 128, 12), corpus[:40]...)
	for _, shape := range []struct {
		k, l  int
		dense bool
	}{{2, 8, true}, {16, 8, false}} {
		for _, mp := range []bool{false, true} {
			k, l := shape.k, shape.l
			t.Run(fmt.Sprintf("k=%d/mp=%v", k, mp), func(t *testing.T) {
				tables, err := BuildBits(corpus, k, l, 2, mp)
				if err != nil {
					t.Fatal(err)
				}
				view := bitsView(t, tables, n)
				streamed := streamBits(t, tables, n)
				delta := NewBitsDelta(k, l, mp)
				for id, sig := range corpus {
					delta.Add(int32(id), sig)
				}
				want := func(q, vis int) []int32 {
					return refProbe(vis, l, func(id, band int) bool {
						d := bits.OnesCount64(bitsBand(queries[q], band*k, k) ^ bitsBand(corpus[id], band*k, k))
						return d == 0 || mp && d == 1
					})
				}
				all := []int{n}
				requireProbes(t, len(queries), shape.dense, []probeCase{
					{"BitsTables", all, func(q, _ int) []int32 { return tables.Probe(queries[q]) }, want},
					{"BitsView", all, func(q, _ int) []int32 { return view.Probe(queries[q]) }, want},
					{"BitsStream", all, func(q, _ int) []int32 { return streamed.Probe(queries[q]) }, want},
					{"BitsDelta", visibilities(n), func(q, vis int) []int32 { return delta.Probe(queries[q], int32(vis)) }, want},
				})
			})
		}
	}
}

// TestMinhashProbesMatchReference is the minhash twin: built,
// stream-decoded and section-opened MinhashTables and MinhashDelta
// against the reference over a
// four-value alphabet, where one-hash bands put a quarter of the
// corpus in each bucket and six-hash bands a few ids.
func TestMinhashProbesMatchReference(t *testing.T) {
	const n, fresh = 1500, 40
	for _, shape := range []struct {
		k, l  int
		dense bool
	}{{1, 6, true}, {6, 6, false}} {
		k, l := shape.k, shape.l
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			corpus := randomMinSigs(n, k*l, 21)
			queries := append(randomMinSigs(fresh, k*l, 22), corpus[:40]...)
			tables, err := BuildMinhash(corpus, k, l, 2)
			if err != nil {
				t.Fatal(err)
			}
			view := minhashView(t, tables, n)
			streamed := streamMinhash(t, tables, n)
			delta := NewMinhashDelta(k, l)
			for id, sig := range corpus {
				delta.Add(int32(id), sig)
			}
			want := func(q, vis int) []int32 {
				return refProbe(vis, l, func(id, band int) bool {
					return slices.Equal(queries[q][band*k:(band+1)*k], corpus[id][band*k:(band+1)*k])
				})
			}
			all := []int{n}
			requireProbes(t, len(queries), shape.dense, []probeCase{
				{"MinhashTables", all, func(q, _ int) []int32 { return tables.Probe(queries[q]) }, want},
				{"MinhashView", all, func(q, _ int) []int32 { return view.Probe(queries[q]) }, want},
				{"MinhashStream", all, func(q, _ int) []int32 { return streamed.Probe(queries[q]) }, want},
				{"MinhashDelta", visibilities(n), func(q, vis int) []int32 { return delta.Probe(queries[q], int32(vis)) }, want},
			})
		})
	}
}

// requirePanics asserts that f panics.
func requirePanics(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestDeltaAddRejectsNonIncreasingIDs pins the precondition the delta
// probes' visibility cut relies on: ids are added in increasing order.
func TestDeltaAddRejectsNonIncreasingIDs(t *testing.T) {
	sig := randomBitSigs(1, 64, 1)[0]
	min := randomMinSigs(1, 8, 1)[0]
	bd, md := NewBitsDelta(8, 8, false), NewMinhashDelta(2, 4)
	requirePanics(t, "BitsDelta.Add(-1) first", func() { bd.Add(-1, sig) })
	requirePanics(t, "MinhashDelta.Add(-1) first", func() { md.Add(-1, min) })
	bd.Add(0, sig)
	md.Add(0, min)
	bd.Add(5, sig)
	md.Add(5, min)
	for _, bad := range []int32{5, 3} {
		requirePanics(t, fmt.Sprintf("BitsDelta.Add(%d) after 5", bad), func() { bd.Add(bad, sig) })
		requirePanics(t, fmt.Sprintf("MinhashDelta.Add(%d) after 5", bad), func() { md.Add(bad, min) })
	}
	bd.Add(6, sig)
	md.Add(6, min)
}
