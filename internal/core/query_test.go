package core

import (
	"testing"

	"bayeslsh/internal/minhash"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/sighash"
	"bayeslsh/internal/stats"
	"bayeslsh/internal/testutil"
)

// queryTestSigs builds minhash and bit signatures over a small corpus.
func queryTestSigs(t *testing.T) ([][]uint32, [][]uint64) {
	t.Helper()
	c := testutil.SmallBinaryCorpus(t, 80, 3)
	min := minhash.NewFamily(256, 7).SignatureAll(c)
	bits := sighash.NewFamily(c.Dim, 256, 9).SignatureAll(c.Normalize())
	return min, bits
}

// lazyMin and lazyBits hand the verifier a query signature that reads
// as zero past the depth of the last Ensure, the way a lazily hashed
// query signature fills: a round that read past its Ensure would see
// zeros and change its decision.
func lazyMin(full []uint32) QuerySig {
	buf := make([]uint32, len(full))
	return QuerySig{Min: buf, Ensure: func(n int) {
		copy(buf, full[:n])
		clear(buf[n:])
	}}
}

func lazyBits(full []uint64) QuerySig {
	buf := make([]uint64, len(full))
	return QuerySig{Bits: buf, Ensure: func(n int) {
		copy(buf, full)
		for b := n; b < 64*len(buf); b++ {
			buf[b/64] &^= 1 << (b % 64)
		}
	}}
}

// TestVerifyQueryMatchesVerify checks the one-sided round loop
// against the two-sided one: verifying candidates (i, j) with i's
// signature as the query must reproduce the batch accept/prune
// decisions and estimates exactly, for all three verifiers.
func TestVerifyQueryMatchesVerify(t *testing.T) {
	min, bits := queryTestSigs(t)
	packed := minhash.PackOneBitAll(min)
	params := Params{Threshold: 0.4, Epsilon: 0.03, Delta: 0.05, Gamma: 0.03}

	jv, err := NewJaccard(min, stats.Beta{Alpha: 1, Beta: 1}, params)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := NewCosine(bits, 256, Params{Threshold: 0.6, Epsilon: 0.03, Delta: 0.05, Gamma: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	ov, err := NewOneBitJaccard(packed, 256, params)
	if err != nil {
		t.Fatal(err)
	}

	type queryCase struct {
		name string
		v    QueryVerifier
		sig  func(i int32) QuerySig
	}
	for _, tc := range []queryCase{
		{"jaccard", jv, func(i int32) QuerySig { return QuerySig{Min: min[i]} }},
		{"cosine", cv, func(i int32) QuerySig { return QuerySig{Bits: bits[i]} }},
		{"onebit", ov, func(i int32) QuerySig { return QuerySig{Bits: packed[i]} }},
		{"jaccard, lazy", jv, func(i int32) QuerySig { return lazyMin(min[i]) }},
		{"cosine, lazy", cv, func(i int32) QuerySig { return lazyBits(bits[i]) }},
	} {
		// Candidates: pair vector 0..9 against everything after it.
		for i := int32(0); i < 10; i++ {
			var cands []pair.Pair
			var ids []int32
			for j := i + 1; j < int32(len(min)); j++ {
				cands = append(cands, pair.Pair{A: i, B: j})
				ids = append(ids, j)
			}
			batch, bst := verifySeq(t, tc.v, cands)
			hits, qst := tc.v.VerifyQuery(tc.sig(i), ids)
			if len(batch) != len(hits) {
				t.Fatalf("%s query %d: %d hits, batch %d", tc.name, i, len(hits), len(batch))
			}
			for k := range batch {
				if batch[k].B != hits[k].ID || batch[k].Sim != hits[k].Sim {
					t.Fatalf("%s query %d hit %d: (%d, %v), batch (%d, %v)",
						tc.name, i, k, hits[k].ID, hits[k].Sim, batch[k].B, batch[k].Sim)
				}
			}
			if bst.Pruned != qst.Pruned || bst.HashesCompared != qst.HashesCompared {
				t.Fatalf("%s query %d stats: pruned %d/%d hashes %d/%d",
					tc.name, i, qst.Pruned, bst.Pruned, qst.HashesCompared, bst.HashesCompared)
			}
		}
	}
}

// TestVerifyQueryLiteMatchesVerifyLite does the same for the Lite
// (prune + exact verify) loop, with the query signature precomputed
// and extended lazily.
func TestVerifyQueryLiteMatchesVerifyLite(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		testVerifyQueryLite(t, lazy)
	}
}

func testVerifyQueryLite(t *testing.T, lazy bool) {
	min, _ := queryTestSigs(t)
	jv, err := NewJaccard(min, stats.Beta{Alpha: 1, Beta: 1},
		Params{Threshold: 0.4, Epsilon: 0.03, Delta: 0.05, Gamma: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	// A synthetic exact-similarity function keyed on ids keeps the
	// test independent of the corpus: sim = matches over full sigs.
	exact := func(a, b int32) float64 {
		return float64(minhash.Matches(min[a], min[b], 0, 256)) / 256
	}
	for i := int32(0); i < 10; i++ {
		var cands []pair.Pair
		var ids []int32
		for j := i + 1; j < int32(len(min)); j++ {
			cands = append(cands, pair.Pair{A: i, B: j})
			ids = append(ids, j)
		}
		batch, bst := verifyLiteSeq(t, jv, cands, 64, exact)
		sig := QuerySig{Min: min[i]}
		if lazy {
			sig = lazyMin(min[i])
		}
		hits, qst, err := jv.VerifyQueryLiteStop(sig, ids, 64,
			func(id int32) float64 { return exact(i, id) }, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(hits) {
			t.Fatalf("query %d: %d hits, batch %d", i, len(hits), len(batch))
		}
		for k := range batch {
			if batch[k].B != hits[k].ID || batch[k].Sim != hits[k].Sim {
				t.Fatalf("query %d hit %d: (%d, %v), batch (%d, %v)",
					i, k, hits[k].ID, hits[k].Sim, batch[k].B, batch[k].Sim)
			}
		}
		if bst.Pruned != qst.Pruned || bst.ExactVerified != qst.ExactVerified {
			t.Fatalf("query %d stats: pruned %d/%d exact %d/%d",
				i, qst.Pruned, bst.Pruned, qst.ExactVerified, bst.ExactVerified)
		}
	}
}
