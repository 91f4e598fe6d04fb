package vector

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func smallCollection() *Collection {
	return &Collection{
		Dim: 6,
		Vecs: []Vector{
			vec(0, 1, 1, 1, 2, 1),
			vec(0, 2, 3, 1),
			vec(0, 1, 4, 2, 5, 3),
		},
	}
}

func TestStats(t *testing.T) {
	s := smallCollection().Stats()
	if s.Vectors != 3 || s.Dim != 6 || s.Nnz != 8 {
		t.Errorf("Stats = %+v", s)
	}
	if math.Abs(s.AvgLen-8.0/3) > 1e-12 {
		t.Errorf("AvgLen = %v", s.AvgLen)
	}
	empty := &Collection{Dim: 4}
	if s := empty.Stats(); s.Vectors != 0 || s.Nnz != 0 {
		t.Errorf("empty Stats = %+v", s)
	}
}

func TestDocFreq(t *testing.T) {
	df := smallCollection().DocFreq()
	want := []int{3, 1, 1, 1, 1, 1}
	for i := range want {
		if df[i] != want[i] {
			t.Errorf("DocFreq[%d] = %d, want %d", i, df[i], want[i])
		}
	}
}

func TestTfIdfDropsUbiquitousFeatures(t *testing.T) {
	c := smallCollection()
	w := c.TfIdf()
	// Feature 0 appears in all 3 documents → idf = ln(1) = 0 → dropped.
	for i, v := range w.Vecs {
		for _, ind := range v.Ind {
			if ind == 0 {
				t.Errorf("vector %d still contains ubiquitous feature", i)
			}
		}
	}
	// Feature 3 appears once → weight = 1 * ln(3).
	found := false
	for _, v := range w.Vecs {
		for i, ind := range v.Ind {
			if ind == 3 {
				found = true
				if math.Abs(v.Val[i]-math.Log(3)) > 1e-12 {
					t.Errorf("idf weight = %v, want ln 3", v.Val[i])
				}
			}
		}
	}
	if !found {
		t.Error("feature 3 missing after TfIdf")
	}
	// Original unchanged.
	if c.Vecs[0].Val[0] != 1 {
		t.Error("TfIdf mutated the source collection")
	}
}

func TestNormalizeCollection(t *testing.T) {
	c := smallCollection().TfIdf().Normalize()
	for i, v := range c.Vecs {
		if v.Len() == 0 {
			continue
		}
		if math.Abs(v.Norm()-1) > 1e-12 {
			t.Errorf("vector %d norm = %v", i, v.Norm())
		}
	}
}

func TestBinarizeCollection(t *testing.T) {
	b := smallCollection().Binarize()
	for _, v := range b.Vecs {
		for _, x := range v.Val {
			if x != 1 {
				t.Fatalf("binarized weight %v", x)
			}
		}
	}
}

func TestSortByLen(t *testing.T) {
	c := smallCollection()
	order := c.SortByLen()
	for i := 1; i < len(order); i++ {
		if c.Vecs[order[i-1]].Len() > c.Vecs[order[i]].Len() {
			t.Fatalf("order not ascending: %v", order)
		}
	}
}

func TestRoundTripSerialization(t *testing.T) {
	c := smallCollection()
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != c.Dim || len(got.Vecs) != len(c.Vecs) {
		t.Fatalf("round trip shape mismatch: %+v", got)
	}
	for i := range c.Vecs {
		if !Equal(got.Vecs[i], c.Vecs[i]) {
			t.Errorf("vector %d mismatch: %+v vs %+v", i, got.Vecs[i], c.Vecs[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not a header\n1:2\n",
		"dim 5\nbroken\n",
		"dim 5\n1:x\n",
		"dim 5\nx:1\n",
		"dim 2\n5:1\n",     // index out of declared dimension
		"dim 5\n2:1 1:1\n", // unsorted
		"dim -1\n",         // negative dimensionality
		"dim 4294967297\n", // past every uint32 feature index
		"dim 5x\n0:1\n",    // trailing header text
		"dim 5 6\n0:1\n",
		"dims 5\n0:1\n",
	}
	for i, s := range cases {
		if _, err := Read(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: Read accepted %q", i, s)
		}
	}
}

// TestReadHeaderBounds: the header's dimensionality is read exactly,
// across its whole range: 0, and 2³² (the largest any uint32 feature
// index needs) where an int holds it, with surrounding whitespace.
func TestReadHeaderBounds(t *testing.T) {
	cases := map[string]int{"dim 0\n": 0, "dim 5\n0:1\n": 5, "  dim\t7 \r\n6:1\n": 7}
	if maxTextDim == 1<<32 {
		cases["dim 4294967296\n4294967295:1\n"] = maxTextDim
	}
	for s, want := range cases {
		c, err := Read(strings.NewReader(s))
		if err != nil {
			t.Errorf("Read(%q): %v", s, err)
		} else if c.Dim != want {
			t.Errorf("Read(%q) dim %d, want %d", s, c.Dim, want)
		}
	}
}

func TestValidateCollection(t *testing.T) {
	c := smallCollection()
	if err := c.Validate(); err != nil {
		t.Errorf("valid collection rejected: %v", err)
	}
	c.Dim = 2
	if err := c.Validate(); err == nil {
		t.Error("out-of-dimension index accepted")
	}
}
