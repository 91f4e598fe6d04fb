package bayeslsh

import "fmt"

// Measure selects the similarity function of the search.
type Measure int

const (
	// Cosine is weighted cosine similarity over real-valued vectors
	// (vectors should be unit-normalized, e.g. via Dataset.Normalize).
	Cosine Measure = iota
	// Jaccard is the set Jaccard similarity of the feature index sets.
	Jaccard
	// BinaryCosine is cosine similarity over binarized vectors.
	BinaryCosine
)

// String implements fmt.Stringer.
func (m Measure) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case Jaccard:
		return "jaccard"
	case BinaryCosine:
		return "binary-cosine"
	default:
		return fmt.Sprintf("Measure(%d)", int(m))
	}
}

// Algorithm selects a full search pipeline (candidate generation +
// verification), mirroring the eight methods compared in §5.1 of the
// paper.
type Algorithm int

const (
	// BruteForce exactly compares all O(n²) pairs. Ground truth.
	BruteForce Algorithm = iota
	// AllPairs is the exact algorithm of Bayardo et al. (WWW'07).
	AllPairs
	// AllPairsBayesLSH feeds AllPairs candidates to BayesLSH.
	AllPairsBayesLSH
	// AllPairsBayesLSHLite feeds AllPairs candidates to BayesLSH-Lite.
	AllPairsBayesLSHLite
	// LSH generates candidates by LSH banding and verifies exactly.
	LSH
	// LSHApprox generates candidates by LSH banding and estimates
	// similarities with the classical fixed-n maximum likelihood
	// estimator (§3 of the paper).
	LSHApprox
	// LSHBayesLSH feeds LSH candidates to BayesLSH.
	LSHBayesLSH
	// LSHBayesLSHLite feeds LSH candidates to BayesLSH-Lite.
	LSHBayesLSHLite
	// PPJoin is the exact prefix-filtering algorithm of Xiao et al.
	// (WWW'08); binary measures only.
	PPJoin
)

// pipeline is an Algorithm taken apart: the candidate generator and
// the verifier the paper composes its eight methods from (§5.1).
// Every step that depends on the algorithm reads these two.
type pipeline struct {
	name string
	gen  generator
	ver  verifier
}

// generator is a pipeline's candidate generator.
type generator uint8

const (
	genBruteForce generator = iota + 1 // every pair; per query, every corpus vector
	genAllPairs                        // the AllPairs inverted index
	genPPJoin                          // prefix filtering; batch joins only
	genLSH                             // banded LSH tables
)

// verifier is a pipeline's verification stage.
type verifier uint8

const (
	verExact  verifier = iota + 1 // exact similarity
	verApprox                     // the fixed-n estimate of §3
	verBayes                      // BayesLSH
	verLite                       // BayesLSH-Lite
)

// pipelines is the one table of algorithms: each Algorithm's name,
// generator and verifier.
var pipelines = [...]pipeline{
	BruteForce:           {"BruteForce", genBruteForce, verExact},
	AllPairs:             {"AllPairs", genAllPairs, verExact},
	AllPairsBayesLSH:     {"AP+BayesLSH", genAllPairs, verBayes},
	AllPairsBayesLSHLite: {"AP+BayesLSH-Lite", genAllPairs, verLite},
	LSH:                  {"LSH", genLSH, verExact},
	LSHApprox:            {"LSH Approx", genLSH, verApprox},
	LSHBayesLSH:          {"LSH+BayesLSH", genLSH, verBayes},
	LSHBayesLSHLite:      {"LSH+BayesLSH-Lite", genLSH, verLite},
	PPJoin:               {"PPJoin", genPPJoin, verExact},
}

// pipeline returns a's generator and verifier, or an error for a value
// outside the table.
func (a Algorithm) pipeline() (pipeline, error) {
	if a < 0 || int(a) >= len(pipelines) {
		return pipeline{}, fmt.Errorf("bayeslsh: unknown algorithm Algorithm(%d)", int(a))
	}
	return pipelines[a], nil
}

// bayes reports whether v is one of the BayesLSH verifiers.
func (v verifier) bayes() bool { return v == verBayes || v == verLite }

// hashes is the number of hashes v reads under o: up to MaxHashes for
// the BayesLSH verifiers (rounded down to whole rounds by their
// constructors), exactly ApproxHashes for the §3 estimator, none for
// exact similarity.
func (v verifier) hashes(o Options) int {
	switch v {
	case verBayes, verLite:
		return o.MaxHashes
	case verApprox:
		return o.ApproxHashes
	}
	return 0
}

// checksAccepted reports whether p exact-checks the pairs its verifier
// accepts (dropSubThreshold): AllPairs candidates under full BayesLSH.
// BayesLSH-Lite exact-verifies every pair it accepts anyway.
func (p pipeline) checksAccepted() bool { return p.gen == genAllPairs && p.ver == verBayes }

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if p, err := a.pipeline(); err == nil {
		return p.name
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms returns all pipelines applicable to the measure, in the
// paper's presentation order.
func Algorithms(m Measure) []Algorithm {
	as := []Algorithm{
		AllPairs, AllPairsBayesLSH, AllPairsBayesLSHLite,
		LSH, LSHApprox, LSHBayesLSH, LSHBayesLSHLite,
	}
	if m == Jaccard || m == BinaryCosine {
		as = append(as, PPJoin)
	}
	return as
}

// UsesBayes reports whether the pipeline includes a BayesLSH or
// BayesLSH-Lite verification stage.
func (a Algorithm) UsesBayes() bool {
	p, err := a.pipeline()
	return err == nil && p.ver.bayes()
}

// Result is one output pair: the dataset ids of the two vectors and
// the reported similarity (exact or estimated, depending on the
// pipeline).
type Result struct {
	A, B int
	Sim  float64
}
