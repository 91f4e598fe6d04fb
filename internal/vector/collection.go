package vector

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Collection is a corpus of sparse vectors over a common feature
// space of dimension Dim.
type Collection struct {
	Vecs []Vector
	Dim  int
}

// Stats summarizes a collection the way Table 1 of the paper does.
type Stats struct {
	Vectors int     // number of vectors
	Dim     int     // dimensionality
	AvgLen  float64 // average number of non-zeros per vector
	LenVar  float64 // variance of vector lengths
	Nnz     int64   // total number of non-zeros
}

// Stats computes corpus statistics.
func (c *Collection) Stats() Stats {
	s := Stats{Vectors: len(c.Vecs), Dim: c.Dim}
	if len(c.Vecs) == 0 {
		return s
	}
	for _, v := range c.Vecs {
		s.Nnz += int64(v.Len())
	}
	s.AvgLen = float64(s.Nnz) / float64(len(c.Vecs))
	for _, v := range c.Vecs {
		d := float64(v.Len()) - s.AvgLen
		s.LenVar += float64(d * d)
	}
	s.LenVar /= float64(len(c.Vecs))
	return s
}

// Validate checks every vector and that indices fit within Dim.
func (c *Collection) Validate() error {
	for i, v := range c.Vecs {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("vector %d: %w", i, err)
		}
		if v.Len() > 0 && int(v.Ind[v.Len()-1]) >= c.Dim {
			return fmt.Errorf("vector %d: index %d outside dimension %d",
				i, v.Ind[v.Len()-1], c.Dim)
		}
	}
	return nil
}

// DocFreq returns, for every feature, the number of vectors containing
// it.
func (c *Collection) DocFreq() []int {
	df := make([]int, c.Dim)
	for _, v := range c.Vecs {
		for _, ind := range v.Ind {
			df[ind]++
		}
	}
	return df
}

// TfIdf returns a new collection re-weighted by tf·idf with
// idf = ln(N / df) and the raw weight as tf, the weighting the paper
// applies to both its text corpora and its graphs. Features that
// appear in every document get idf 0 and are dropped.
func (c *Collection) TfIdf() *Collection {
	df := c.DocFreq()
	n := float64(len(c.Vecs))
	idf := make([]float64, c.Dim)
	for i, d := range df {
		if d > 0 {
			idf[i] = math.Log(n / float64(d))
		}
	}
	out := &Collection{Dim: c.Dim, Vecs: make([]Vector, len(c.Vecs))}
	for vi, v := range c.Vecs {
		var nv Vector
		for i, ind := range v.Ind {
			if w := v.Val[i] * idf[ind]; w != 0 {
				nv.Ind = append(nv.Ind, ind)
				nv.Val = append(nv.Val, w)
			}
		}
		out.Vecs[vi] = nv
	}
	return out
}

// Normalize scales every vector to unit norm in place and returns c.
func (c *Collection) Normalize() *Collection {
	for i := range c.Vecs {
		c.Vecs[i].Normalize()
	}
	return c
}

// Binarize returns a new collection with all weights set to 1.
func (c *Collection) Binarize() *Collection {
	out := &Collection{Dim: c.Dim, Vecs: make([]Vector, len(c.Vecs))}
	for i, v := range c.Vecs {
		out.Vecs[i] = v.Binarize()
	}
	return out
}

// SortByLen returns a permutation of vector ids ordered by increasing
// length (number of non-zeros), the canonical processing order for
// prefix-filtering algorithms such as PPJoin.
func (c *Collection) SortByLen() []int {
	order := make([]int, len(c.Vecs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return c.Vecs[order[a]].Len() < c.Vecs[order[b]].Len()
	})
	return order
}

// WriteTo serializes the collection in a plain text format:
// a header line "dim N", then one line per vector of
// "ind:val ind:val ...". It implements io.WriterTo.
func (c *Collection) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	n, err := fmt.Fprintf(bw, "dim %d\n", c.Dim)
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, v := range c.Vecs {
		for i, ind := range v.Ind {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return total, err
				}
				total++
			}
			n, err := fmt.Fprintf(bw, "%d:%g", ind, v.Val[i])
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return total, err
		}
		total++
	}
	return total, bw.Flush()
}

// Read parses the format written by WriteTo.
func Read(r io.Reader) (*Collection, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("vector: empty input")
	}
	var dim int
	if _, err := fmt.Sscanf(sc.Text(), "dim %d", &dim); err != nil {
		return nil, fmt.Errorf("vector: bad header %q: %w", sc.Text(), err)
	}
	c := &Collection{Dim: dim}
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		var v Vector
		for _, f := range fields {
			colon := strings.IndexByte(f, ':')
			if colon < 0 {
				return nil, fmt.Errorf("vector: line %d: bad entry %q", line, f)
			}
			ind, err := strconv.ParseUint(f[:colon], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("vector: line %d: bad index %q: %w", line, f, err)
			}
			val, err := strconv.ParseFloat(f[colon+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("vector: line %d: bad value %q: %w", line, f, err)
			}
			v.Ind = append(v.Ind, uint32(ind))
			v.Val = append(v.Val, val)
		}
		c.Vecs = append(c.Vecs, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
