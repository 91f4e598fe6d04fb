package core

import (
	"fmt"
	"sync"
	"testing"

	"bayeslsh/internal/allpairs"
	"bayeslsh/internal/exact"
	"bayeslsh/internal/stats"
	"bayeslsh/internal/testutil"
)

// tableVerifier is a verifier of one kind with the given parameters,
// over a single all-zero signature: the table tests read only its
// kernel.
func tableVerifier(t testing.TB, kind string, prior stats.Beta, p Params) *kernel {
	t.Helper()
	bits := [][]uint64{make([]uint64, p.MaxHashes/64)}
	var kr *kernel
	switch kind {
	case "cosine":
		v, err := NewCosine(bits, p.MaxHashes, p)
		if err != nil {
			t.Fatal(err)
		}
		kr = &v.kernel
	case "onebit":
		v, err := NewOneBitJaccard(bits, p.MaxHashes, p)
		if err != nil {
			t.Fatal(err)
		}
		kr = &v.kernel
	default:
		v, err := NewJaccard([][]uint32{make([]uint32, p.MaxHashes)}, prior, p)
		if err != nil {
			t.Fatal(err)
		}
		kr = &v.kernel
	}
	return kr
}

// acceptTable builds every round of kr's accept table, charging the
// posterior evaluations to st, and returns its rounds.
func (kr *kernel) acceptTable(st *Stats) []*cutoffs {
	tb := make([]*cutoffs, len(kr.ns))
	for r := range tb {
		tb[r] = kr.cutoffsAt(r, st)
	}
	return tb
}

// fittedPriors are Jaccard priors as FitJaccardPrior fits them from the
// candidates of the package's test corpora.
func fittedPriors(t *testing.T) []stats.Beta {
	var priors []stats.Beta
	for _, th := range []float64{0.3, 0.5, 0.7} {
		c := testutil.SmallBinaryCorpus(t, 400, 31)
		cands, err := allpairs.CandidatesMeasure(c, exact.Jaccard, th)
		if err != nil {
			t.Fatal(err)
		}
		priors = append(priors, FitJaccardPrior(c, cands, 100, 2031))
	}
	c, cands := plantedCorpus(12, 23)
	return append(priors, FitJaccardPrior(c, cands, 200, 23))
}

// forgetTables empties the table registry, so the next verifier of
// every key builds its tables again.
func forgetTables() {
	registry.Lock()
	defer registry.Unlock()
	registry.tables = nil
}

// TestAcceptTablesMatchPredicate is the exhaustive check of the accept
// cutoffs (see roundCutoffs for why they take the form they do): for
// every kind, prior, K and MaxHashes of the grid (and two more
// settings of δ and γ), every
// round and every m in [0, n] — a superset of the [minM[r], n] any
// threshold's loop tests — the table decides as the concentration
// predicate does. The thresholds of the grid share one accept table
// per key, since the predicate does not depend on t, and a failure
// names the round whose cutoffs are wrong.
func TestAcceptTablesMatchPredicate(t *testing.T) {
	type kindPrior struct {
		kind  string
		prior stats.Beta
	}
	kinds := []kindPrior{
		{"cosine", uniform},
		{"onebit", uniform},
		{"jaccard", uniform},
		{"jaccard", stats.Beta{Alpha: 0.8, Beta: 12}}, // skewed low: most candidates dissimilar
		{"jaccard", stats.Beta{Alpha: 0.3, Beta: 2.5}},
		{"jaccard", stats.Beta{Alpha: 6, Beta: 0.7}},   // skewed high: near-duplicates
		{"jaccard", stats.Beta{Alpha: 0.5, Beta: 0.5}}, // U-shaped: bimodal candidate sets
	}
	for _, prior := range fittedPriors(t) {
		kinds = append(kinds, kindPrior{"jaccard", prior})
	}
	for _, kp := range kinds {
		for _, acc := range [][2]float64{{0.05, 0.03}, {0.1, 0.05}, {0.02, 0.1}} {
			for _, k := range []int{16, 32, 64} {
				for _, maxHashes := range []int{256, 512, 2048} {
					if acc[0] != 0.05 && (k != 16 || maxHashes != 2048) {
						continue // K=16 to 2,048 hashes already has every n of the rest
					}
					name := fmt.Sprintf("%s %v δ=%v γ=%v K=%d max=%d", kp.kind, kp.prior, acc[0], acc[1], k, maxHashes)
					var shared []*cutoffs
					for _, th := range []float64{0.3, 0.5, 0.7, 0.9} {
						p := Params{Threshold: th, Epsilon: 0.03, Delta: acc[0], Gamma: acc[1], K: k, MaxHashes: maxHashes}
						kr := tableVerifier(t, kp.kind, kp.prior, p)
						tb := kr.acceptTable(&Stats{})
						if shared == nil {
							shared = tb
						} else if tb[0] != shared[0] {
							t.Fatalf("%s: t=%v built its own accept table", name, th)
						}
						if th != 0.3 {
							continue
						}
						for r, n := range kr.ns {
							for m := 0; m <= n; m++ {
								if table, want := tb[r].accepts(int32(m)), kr.concentrated(m, n); table != want {
									t.Fatalf("%s: round %d (n=%d), m=%d: table says %v, predicate %v (cutoffs %+v)",
										name, r, n, m, table, want, *tb[r])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestTablesInternedPerKey checks the registry's keys: verifiers that
// differ only in t share the accept table but not the prune table, and
// a change of δ, γ, prior, K, MaxHashes or kind gets its own tables.
func TestTablesInternedPerKey(t *testing.T) {
	base := Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.05, Gamma: 0.03, K: 32, MaxHashes: 512}
	ref := tableVerifier(t, "jaccard", uniform, base)
	same := tableVerifier(t, "jaccard", uniform, base)
	if same.accept != ref.accept || &same.minM[0] != &ref.minM[0] {
		t.Fatal("equal keys built separate tables")
	}
	other := base
	other.Threshold = 0.5
	if kr := tableVerifier(t, "jaccard", uniform, other); kr.accept != ref.accept || &kr.minM[0] == &ref.minM[0] {
		t.Error("a new threshold must share the accept table and build its own prune table")
	}
	for name, kr := range map[string]*kernel{
		"delta":     tableVerifier(t, "jaccard", uniform, Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.04, Gamma: 0.03, K: 32, MaxHashes: 512}),
		"gamma":     tableVerifier(t, "jaccard", uniform, Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05, K: 32, MaxHashes: 512}),
		"prior":     tableVerifier(t, "jaccard", stats.Beta{Alpha: 0.8, Beta: 12}, base),
		"K":         tableVerifier(t, "jaccard", uniform, Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.05, Gamma: 0.03, K: 16, MaxHashes: 512}),
		"MaxHashes": tableVerifier(t, "jaccard", uniform, Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.05, Gamma: 0.03, K: 32, MaxHashes: 256}),
		"kind":      tableVerifier(t, "onebit", uniform, base),
	} {
		if kr.accept == ref.accept {
			t.Errorf("%s: shares the accept table", name)
		}
	}
}

// TestRegistryBounded interns more keys than the registry holds: it
// stays at its capacity, a key in steady use and the newest keys are
// still shared, and a verifier whose key was evicted keeps its tables.
func TestRegistryBounded(t *testing.T) {
	forgetTables()
	defer forgetTables()
	p := Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.05, Gamma: 0.03, K: 32, MaxHashes: 256}
	hot := tableVerifier(t, "jaccard", uniform, p)
	var first *kernel
	var last Params
	for i := range 2 * registryCap {
		p.Threshold = 0.3 + 0.6*float64(i)/(2*registryCap)
		kr := tableVerifier(t, "cosine", uniform, p)
		if first == nil {
			first = kr
		}
		last = p
		if kr := tableVerifier(t, "jaccard", uniform, hot.params); kr.accept != hot.accept {
			t.Fatalf("after %d new keys, a key in use was evicted", i)
		}
	}
	registry.Lock()
	size := len(registry.tables)
	registry.Unlock()
	if size != registryCap {
		t.Fatalf("registry holds %d tables, capacity %d", size, registryCap)
	}
	if a, b := tableVerifier(t, "cosine", uniform, last), tableVerifier(t, "cosine", uniform, last); &a.minM[0] != &b.minM[0] {
		t.Error("the newest key is no longer shared")
	}
	if len(first.minM) != len(first.ns) {
		t.Error("an evicted key's verifier lost its prune table")
	}
}

// TestTablesConcurrentBuild races verifiers over one new key: they all
// read one prune and one accept table, and each accept round is
// charged to exactly one of them.
func TestTablesConcurrentBuild(t *testing.T) {
	forgetTables()
	p := Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.05, Gamma: 0.03, K: 32, MaxHashes: 512}
	const workers = 8
	krs := make([]*kernel, workers)
	tables := make([][]*cutoffs, workers)
	charged := make([]int, workers)
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st Stats
			krs[g] = tableVerifier(t, "cosine", uniform, p)
			tables[g] = krs[g].acceptTable(&st)
			charged[g] = st.InferenceCalls
		}()
	}
	wg.Wait()
	total := 0
	for g := range workers {
		for r := range tables[g] {
			if &krs[g].minM[0] != &krs[0].minM[0] || tables[g][r] != tables[0][r] {
				t.Fatalf("verifier %d built its own tables", g)
			}
		}
		total += charged[g]
	}
	want := 0
	for _, n := range krs[0].ns {
		_, calls := krs[0].roundCutoffs(n)
		want += calls
	}
	if total != want {
		t.Fatalf("verifiers were charged %d posterior calls, one build costs %d", total, want)
	}
}
