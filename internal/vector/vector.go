package vector

import (
	"fmt"
	"math"
	"sort"
)

// Vector is a sparse vector: parallel slices of strictly increasing
// feature indices and their weights. The zero value is the empty
// vector and is ready to use.
type Vector struct {
	Ind []uint32
	Val []float64
}

// Len returns the number of non-zero entries.
func (v Vector) Len() int { return len(v.Ind) }

// Entry is an (index, weight) pair used when constructing vectors.
type Entry struct {
	Ind uint32
	Val float64
}

// New builds a Vector from entries. Entries are sorted by index;
// duplicate indices have their weights summed; zero weights are
// dropped. The input slice is not modified.
func New(entries []Entry) Vector {
	if len(entries) == 0 {
		return Vector{}
	}
	es := make([]Entry, len(entries))
	copy(es, entries)
	sort.Slice(es, func(i, j int) bool { return es[i].Ind < es[j].Ind })
	var v Vector
	i := 0
	for i < len(es) {
		j := i
		sum := 0.0
		for j < len(es) && es[j].Ind == es[i].Ind {
			sum += es[j].Val
			j++
		}
		if sum != 0 {
			v.Ind = append(v.Ind, es[i].Ind)
			v.Val = append(v.Val, sum)
		}
		i = j
	}
	return v
}

// FromMap builds a Vector from an index→weight map, dropping zeros.
func FromMap(m map[uint32]float64) Vector {
	entries := make([]Entry, 0, len(m))
	for ind, val := range m {
		//apsslint:allow mapiter New sorts entries by index below, so map order never reaches the built vector
		entries = append(entries, Entry{ind, val})
	}
	return New(entries)
}

// Validate returns an error if the vector's indices are not strictly
// increasing or a weight is zero or non-finite.
func (v Vector) Validate() error {
	if len(v.Ind) != len(v.Val) {
		return fmt.Errorf("vector: %d indices but %d weights", len(v.Ind), len(v.Val))
	}
	for i := range v.Ind {
		if i > 0 && v.Ind[i] <= v.Ind[i-1] {
			return fmt.Errorf("vector: indices not strictly increasing at position %d", i)
		}
		if v.Val[i] == 0 || math.IsNaN(v.Val[i]) || math.IsInf(v.Val[i], 0) {
			return fmt.Errorf("vector: bad weight %v at position %d", v.Val[i], i)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (v Vector) Clone() Vector {
	out := Vector{Ind: make([]uint32, len(v.Ind)), Val: make([]float64, len(v.Val))}
	copy(out.Ind, v.Ind)
	copy(out.Val, v.Val)
	return out
}

// Dot returns the inner product of a and b using a sorted merge.
func Dot(a, b Vector) float64 {
	i, j := 0, 0
	sum := 0.0
	for i < len(a.Ind) && j < len(b.Ind) {
		switch {
		case a.Ind[i] == b.Ind[j]:
			// float64(·) rounds the product before the add, so no
			// architecture fuses the two (see the package doc).
			sum += float64(a.Val[i] * b.Val[j])
			i++
			j++
		case a.Ind[i] < b.Ind[j]:
			i++
		default:
			j++
		}
	}
	return sum
}

// Norm returns the Euclidean norm.
func (v Vector) Norm() float64 {
	sum := 0.0
	for _, x := range v.Val {
		sum += float64(x * x)
	}
	return math.Sqrt(sum)
}

// MaxVal returns the largest weight (0 for the empty vector).
func (v Vector) MaxVal() float64 {
	m := 0.0
	for _, x := range v.Val {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of the weights.
func (v Vector) Sum() float64 {
	s := 0.0
	for _, x := range v.Val {
		s += x
	}
	return s
}

// Scale multiplies every weight by c in place and returns v.
func (v Vector) Scale(c float64) Vector {
	for i := range v.Val {
		v.Val[i] *= c
	}
	return v
}

// Normalize scales v in place to unit Euclidean norm and returns v.
// The empty (or all-zero) vector is returned unchanged.
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Cosine returns the cosine similarity dot(a,b) / (‖a‖·‖b‖).
// It returns 0 if either vector is empty.
func Cosine(a, b Vector) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	c := Dot(a, b) / (na * nb)
	// Guard against rounding pushing past the mathematical range.
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return c
}

// Overlap returns |a ∩ b| counting shared indices only.
func Overlap(a, b Vector) int {
	i, j, n := 0, 0, 0
	for i < len(a.Ind) && j < len(b.Ind) {
		switch {
		case a.Ind[i] == b.Ind[j]:
			n++
			i++
			j++
		case a.Ind[i] < b.Ind[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// Jaccard returns the Jaccard set similarity |a∩b| / |a∪b| of the
// index sets, ignoring weights. Two empty vectors have similarity 0.
func Jaccard(a, b Vector) float64 {
	inter := Overlap(a, b)
	union := len(a.Ind) + len(b.Ind) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// BinaryCosine returns the cosine similarity of the binarized vectors,
// |a∩b| / sqrt(|a|·|b|).
func BinaryCosine(a, b Vector) float64 {
	if len(a.Ind) == 0 || len(b.Ind) == 0 {
		return 0
	}
	return float64(Overlap(a, b)) / math.Sqrt(float64(len(a.Ind))*float64(len(b.Ind)))
}

// Binarize returns a copy of v with every weight set to 1.
func (v Vector) Binarize() Vector {
	out := Vector{Ind: make([]uint32, len(v.Ind)), Val: make([]float64, len(v.Ind))}
	copy(out.Ind, v.Ind)
	for i := range out.Val {
		out.Val[i] = 1
	}
	return out
}

// Equal reports exact structural equality.
func Equal(a, b Vector) bool {
	if len(a.Ind) != len(b.Ind) {
		return false
	}
	for i := range a.Ind {
		if a.Ind[i] != b.Ind[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}
