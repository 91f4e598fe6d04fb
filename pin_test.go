package bayeslsh

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// Digests of every two-phase pipeline's Search output on the shared
// 1000-vector invariance corpus (seed 42), recorded before banded-LSH
// verification moved into the row phase that enumerates the
// candidates. Each cell pins two digests: the results (pairs, order
// and similarity bits) and the scheduling-independent counters
// (Candidates, Pruned, ExactVerified, HashesCompared,
// SurvivorsByRound). Every cell must reproduce both at Parallelism 1
// and 3 and at BatchSize 1 and the default, so no change to candidate
// generation or verification may move a pair, an estimate or a count.
var searchPins = map[string]string{
	"cosine/LSH/multiprobe=false/onebit=false":                      "e55173a416d59a61 5bd0a0b0a9cb8fa1",
	"cosine/LSH/multiprobe=true/onebit=false":                       "e2357f97073d4fe4 3b8c5f696314e235",
	"cosine/LSH Approx/multiprobe=false/onebit=false":               "4e1ccd15582917ba 86036cde78d59365",
	"cosine/LSH Approx/multiprobe=true/onebit=false":                "40ff3376ccd247d3 8ec2e6ddfb02e1f7",
	"cosine/AP+BayesLSH/multiprobe=false/onebit=false":              "f4e674914803fa7e 1ea054560c056515",
	"cosine/AP+BayesLSH/multiprobe=true/onebit=false":               "f4e674914803fa7e 1ea054560c056515",
	"cosine/AP+BayesLSH-Lite/multiprobe=false/onebit=false":         "ff60861a2f9ab890 4c50b9e820636e97",
	"cosine/AP+BayesLSH-Lite/multiprobe=true/onebit=false":          "ff60861a2f9ab890 4c50b9e820636e97",
	"cosine/LSH+BayesLSH/multiprobe=false/onebit=false":             "a48260d6b16fe532 3a92e21c323d2462",
	"cosine/LSH+BayesLSH/multiprobe=true/onebit=false":              "ee94f37640de9822 e18f489a785d9348",
	"cosine/LSH+BayesLSH-Lite/multiprobe=false/onebit=false":        "cb62c07f37a3d751 711610d6caedfc43",
	"cosine/LSH+BayesLSH-Lite/multiprobe=true/onebit=false":         "acb0f6372221c6d9 942237b89c5551f0",
	"jaccard/LSH/multiprobe=false/onebit=false":                     "b607cfc464c3c851 30ed46c89e73adaa",
	"jaccard/LSH/multiprobe=false/onebit=true":                      "b607cfc464c3c851 30ed46c89e73adaa",
	"jaccard/LSH Approx/multiprobe=false/onebit=false":              "e34fc87a9a94bf4e 35765342b5b565c2",
	"jaccard/LSH Approx/multiprobe=false/onebit=true":               "e34fc87a9a94bf4e 35765342b5b565c2",
	"jaccard/AP+BayesLSH/multiprobe=false/onebit=false":             "9120896ac739bfbb 5a5714ff5e8dc70b",
	"jaccard/AP+BayesLSH/multiprobe=false/onebit=true":              "3ceaee58e66ed7ef f2f80b55a98b6c1b",
	"jaccard/AP+BayesLSH-Lite/multiprobe=false/onebit=false":        "8818fb16ffeb5e5d 57bc56518573dfb7",
	"jaccard/AP+BayesLSH-Lite/multiprobe=false/onebit=true":         "7e42e73c16c2312f e56d2fe7ba92c4ef",
	"jaccard/LSH+BayesLSH/multiprobe=false/onebit=false":            "285c54828e4d454c 3ec2297e8561acd1",
	"jaccard/LSH+BayesLSH/multiprobe=false/onebit=true":             "2198f55ba534d73d 2dc2dee9eca18690",
	"jaccard/LSH+BayesLSH-Lite/multiprobe=false/onebit=false":       "44d5b35c8854b498 2ecc25d982f0d531",
	"jaccard/LSH+BayesLSH-Lite/multiprobe=false/onebit=true":        "9924f7fc0be97094 fc45e266f05e6818",
	"binary-cosine/LSH/multiprobe=false/onebit=false":               "433b2e8b9933799f 8f82385e42f9a585",
	"binary-cosine/LSH/multiprobe=true/onebit=false":                "41e412a64e167e31 88007048613e66ca",
	"binary-cosine/LSH Approx/multiprobe=false/onebit=false":        "3fb217a69620e30f 0100fa3e123cefc8",
	"binary-cosine/LSH Approx/multiprobe=true/onebit=false":         "6fef39016e43b7b0 744ce6e008a5c47f",
	"binary-cosine/AP+BayesLSH/multiprobe=false/onebit=false":       "6d2e5931d1959b18 7c877d659f2383dd",
	"binary-cosine/AP+BayesLSH/multiprobe=true/onebit=false":        "6d2e5931d1959b18 7c877d659f2383dd",
	"binary-cosine/AP+BayesLSH-Lite/multiprobe=false/onebit=false":  "956097897687c09d ba3ce3a3a316b77b",
	"binary-cosine/AP+BayesLSH-Lite/multiprobe=true/onebit=false":   "956097897687c09d ba3ce3a3a316b77b",
	"binary-cosine/LSH+BayesLSH/multiprobe=false/onebit=false":      "fe366f786e56807c 73f849b1aab7c682",
	"binary-cosine/LSH+BayesLSH/multiprobe=true/onebit=false":       "8a132e9a2ce512a0 baa783c635be2986",
	"binary-cosine/LSH+BayesLSH-Lite/multiprobe=false/onebit=false": "627c3ca355a5037b 5abadf9e8cf35525",
	"binary-cosine/LSH+BayesLSH-Lite/multiprobe=true/onebit=false":  "3b3b70e235a07880 493d118056aa1d5b",
}

// pinVariants returns the option variants pinned for a measure: the
// plain pipeline plus the one that changes its kernel (1-bit minhash
// for Jaccard, multi-probe banding for the cosine measures).
func pinVariants(m Measure) []Options {
	if m == Jaccard {
		return []Options{{}, {OneBitMinhash: true}}
	}
	return []Options{{}, {MultiProbe: true}}
}

// outputDigests returns the md5 digests (first 16 hex digits) of an
// output's results and of its counters.
func outputDigests(out *Output) (results, counters string) {
	h := md5.New()
	for _, r := range out.Results {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(r.A)))
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(r.B)))
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(r.Sim)))
	}
	results = hex.EncodeToString(h.Sum(nil))[:16]
	sum := md5.Sum(fmt.Appendf(nil, "%d %d %d %d %v",
		out.Candidates, out.Pruned, out.ExactVerified, out.HashesCompared, out.SurvivorsByRound))
	return results, hex.EncodeToString(sum[:])[:16]
}

func TestSearchOutputPinned(t *testing.T) {
	twoPhase := []Algorithm{LSH, LSHApprox, AllPairsBayesLSH, AllPairsBayesLSHLite, LSHBayesLSH, LSHBayesLSHLite}
	for _, tc := range parallelCases {
		engines := map[int]*Engine{}
		for _, w := range []int{1, 3} {
			// Build the stores up front so the per-BatchSize copies below
			// share one set of signatures per worker count.
			e := newParallelEngine(t, tc.measure, w, 0)
			e.sigs.sigStore()
			engines[w] = e
		}
		for _, alg := range twoPhase {
			for _, v := range pinVariants(tc.measure) {
				v.Algorithm, v.Threshold = alg, tc.t
				name := fmt.Sprintf("%v/%v/multiprobe=%v/onebit=%v", tc.measure, alg, v.MultiProbe, v.OneBitMinhash)
				t.Run(name, func(t *testing.T) {
					want, ok := searchPins[name]
					if !ok {
						t.Errorf("no pinned digests")
					}
					for _, w := range []int{1, 3} {
						for _, b := range []int{1, 0} {
							eng := *engines[w]
							eng.cfg.BatchSize = b
							eng.cfg = eng.cfg.withDefaults()
							out, err := eng.Search(v)
							if err != nil {
								t.Fatal(err)
							}
							rd, cd := outputDigests(out)
							if got := rd + " " + cd; got != want {
								t.Errorf("Parallelism %d BatchSize %d: digests %q, pinned %q", w, b, got, want)
							}
						}
					}
				})
			}
		}
	}
}
