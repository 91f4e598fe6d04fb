package exact

import (
	"bayeslsh/internal/pair"
	"bayeslsh/internal/vector"
)

// Measure selects the similarity function.
type Measure int

const (
	// Cosine is the weighted cosine similarity.
	Cosine Measure = iota
	// Jaccard is the set Jaccard similarity of the index sets.
	Jaccard
	// BinaryCosine is cosine over binarized vectors.
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
		return "unknown"
	}
}

// Sim computes the similarity of two vectors under m.
func (m Measure) Sim(a, b vector.Vector) float64 {
	switch m {
	case Cosine:
		return vector.Cosine(a, b)
	case Jaccard:
		return vector.Jaccard(a, b)
	case BinaryCosine:
		return vector.BinaryCosine(a, b)
	default:
		panic("exact: unknown measure")
	}
}

// Search returns every pair of vectors with similarity >= t by
// examining all O(n²) pairs on the calling goroutine — the ground
// truth the tests compare every other scan against. Use only on
// modest collections; SearchStream is the sharded, cancelable form.
func Search(c *vector.Collection, m Measure, t float64) []pair.Result {
	var out []pair.Result
	for i := 0; i < len(c.Vecs); i++ {
		if c.Vecs[i].Len() == 0 {
			continue
		}
		for j := i + 1; j < len(c.Vecs); j++ {
			if s := m.Sim(c.Vecs[i], c.Vecs[j]); s >= t {
				out = append(out, pair.Result{A: int32(i), B: int32(j), Sim: s})
			}
		}
	}
	return out
}

// Verify computes exact similarities for candidate pairs and keeps
// those meeting the threshold, on the calling goroutine (the
// reference for VerifyStream).
func Verify(c *vector.Collection, m Measure, t float64, cands []pair.Pair) []pair.Result {
	var out []pair.Result
	for _, p := range cands {
		if s := m.Sim(c.Vecs[p.A], c.Vecs[p.B]); s >= t {
			out = append(out, pair.Result{A: p.A, B: p.B, Sim: s})
		}
	}
	return out
}
