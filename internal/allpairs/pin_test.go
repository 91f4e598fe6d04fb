package allpairs

import (
	"context"
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"bayeslsh/internal/dataset"
	"bayeslsh/internal/exact"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/testutil"
	"bayeslsh/internal/vector"
)

// graphCorpus is an Orkut-shaped corpus: preferential-attachment
// adjacency rows with planted communities, the shape the AP+BayesLSH
// Jaccard pipelines run on.
func graphCorpus(tb testing.TB, n, avgLen int, seed uint64) *vector.Collection {
	tb.Helper()
	c, err := dataset.Generate(dataset.Spec{
		Name: "graph", Kind: dataset.Graph, N: n, AvgLen: avgLen,
		ClusterFrac: 0.25, ClusterSize: 5, MutationRate: 0.2, Seed: seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// streamDigest is the md5 of a candidate stream, pair by pair in
// order, each as two little-endian uint32 ids.
func streamDigest(ps []pair.Pair) string {
	h := md5.New()
	var b [8]byte
	for _, p := range ps {
		binary.LittleEndian.PutUint32(b[:4], uint32(p.A))
		binary.LittleEndian.PutUint32(b[4:], uint32(p.B))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

type streamPin struct {
	n   int
	md5 string
}

// binaryStreamPins are the candidate streams of the binary measures,
// recorded before the Cauchy–Schwarz size filter, list-head binary
// search and sort-free build landed. Those changes must skip only
// partners the upper-bound check rejects, so the streams are pinned
// exactly: count, order and content.
var binaryStreamPins = map[string]streamPin{
	"jaccard/seed1/t0.3":       {2800, "04be27b3cb78752a6f51cd01b6a7ab9b"},
	"jaccard/seed1/t0.5":       {948, "ce16ca125ca95da26d2cb711b9c13865"},
	"jaccard/seed1/t0.7":       {261, "8ae8f6e14f21e509e281557617ee93e2"},
	"binary-cosine/seed1/t0.3": {10431, "c66548db82ef10e6b3d7f18d486eea5e"},
	"binary-cosine/seed1/t0.5": {2323, "ac66e472b9c3f61837bee9e686be8111"},
	"binary-cosine/seed1/t0.7": {465, "01852f444feae092adbdccd9e63b2d95"},
	"jaccard/seed2/t0.3":       {2754, "d3d221f895371cc63af3d75143cebc9a"},
	"jaccard/seed2/t0.5":       {918, "0f45e5c97a60e26951c67c3ed0f7c18b"},
	"jaccard/seed2/t0.7":       {290, "11d1c806c26e11eb5661e466375de50e"},
	"binary-cosine/seed2/t0.3": {10611, "603c12edaad86752a523f91043a7a954"},
	"binary-cosine/seed2/t0.5": {2540, "769510f5a4e777fa781f6cd3da44e89c"},
	"binary-cosine/seed2/t0.7": {502, "fd74356d56d63919354c0c97c9690b11"},
}

// cosineCountPins are the weighted-cosine candidate counts recorded at
// the same point. The squared size filter may drop sub-threshold
// candidates there, so counts may only fall.
var cosineCountPins = map[string]int{
	"cosine/seed1/t0.3": 17458,
	"cosine/seed1/t0.5": 7042,
	"cosine/seed1/t0.7": 2842,
	"cosine/seed2/t0.3": 14025,
	"cosine/seed2/t0.5": 5478,
	"cosine/seed2/t0.7": 2191,
}

// TestCandidateStreamPinned: the binary-measure candidate stream is
// bit-identical to the pinned one at every worker count, and the
// weighted-cosine stream is no longer than pinned while the search over
// it still equals brute force.
func TestCandidateStreamPinned(t *testing.T) {
	ctx := context.Background()
	ths := []float64{0.3, 0.5, 0.7}
	for _, seed := range []uint64{1, 2} {
		c := graphCorpus(t, 1500, 40, seed)
		for _, m := range []exact.Measure{exact.Jaccard, exact.BinaryCosine} {
			for _, th := range ths {
				key := fmt.Sprintf("%v/seed%d/t%.1f", m, seed, th)
				pin := binaryStreamPins[key]
				for _, workers := range []int{1, 4} {
					got, err := CandidatesMeasureCtx(ctx, c, m, th, workers)
					if err != nil {
						t.Fatal(err)
					}
					if sum := streamDigest(got); len(got) != pin.n || sum != pin.md5 {
						t.Errorf("%s workers %d: %d candidates md5 %s, pinned %d md5 %s",
							key, workers, len(got), sum, pin.n, pin.md5)
					}
				}
			}
		}
		w := testutil.SmallTextCorpus(t, 400, seed)
		for _, th := range ths {
			key := fmt.Sprintf("cosine/seed%d/t%.1f", seed, th)
			pin := cosineCountPins[key]
			for _, workers := range []int{1, 4} {
				got, err := CandidatesMeasureCtx(ctx, w, exact.Cosine, th, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) > pin {
					t.Errorf("%s workers %d: %d candidates, pinned %d", key, workers, len(got), pin)
				}
				rs, err := searchCollect(ctx, w, exact.Cosine, th, workers, 64)
				if err != nil {
					t.Fatal(err)
				}
				testutil.RequireSameResults(t, rs, exact.Search(w, exact.Cosine, th), 1e-9)
			}
		}
	}
}
