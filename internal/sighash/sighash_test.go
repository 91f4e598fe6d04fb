package sighash

import (
	"math"
	"testing"
	"testing/quick"

	"bayeslsh/internal/rng"
	"bayeslsh/internal/vector"
)

func TestQuantizeRoundTripError(t *testing.T) {
	src := rng.New(1)
	worst := 0.0
	for i := 0; i < 100000; i++ {
		x := src.NormFloat64()
		err := math.Abs(Dequantize(Quantize(x)) - x)
		if err > worst {
			worst = err
		}
	}
	// One quantization step is 16/65536 ≈ 0.000244.
	if worst > 16.0/65536+1e-9 {
		t.Errorf("worst quantization error %v exceeds one step", worst)
	}
}

func TestQuantizeClampsOutOfRange(t *testing.T) {
	if Quantize(-9) != 0 {
		t.Error("below-range value not clamped to 0")
	}
	if Quantize(9) != math.MaxUint16 {
		t.Error("above-range value not clamped to max")
	}
	if got := Dequantize(Quantize(0)); math.Abs(got) > 0.001 {
		t.Errorf("Dequantize(Quantize(0)) = %v", got)
	}
}

// TestQuantizeEdges pins Quantize at the ends of its range and just
// inside them: Nextafter(8, 0) scales to a value that rounds up to
// 2¹⁶ and must clamp to the top code instead of wrapping to 0.
func TestQuantizeEdges(t *testing.T) {
	for _, c := range []struct {
		x    float64
		want uint16
	}{
		{math.Inf(-1), 0},
		{math.Nextafter(-8, -9), 0},
		{-8, 0},
		{math.Nextafter(-8, 0), 0},
		{-8 + 1.0/4096, 1},
		{-1, 28672},
		{0, 32768},
		{0.5 / 4096, 32768},
		{1, 36864},
		{8 - 1.0/4096, 65535},
		{math.Nextafter(8, 0), math.MaxUint16},
		{8, math.MaxUint16},
		{math.Inf(1), math.MaxUint16},
	} {
		if got := Quantize(c.x); got != c.want {
			t.Errorf("Quantize(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestDequantizeTable checks the hashing kernel's table exhaustively:
// for every code q it holds exactly float64(q)/4096 − 8 — the product
// w·table[q] is then the one the formula gives — and Dequantize agrees
// with it and is inverted by Quantize.
func TestDequantizeTable(t *testing.T) {
	for q := 0; q < 1<<16; q++ {
		want := float64(q)/4096 - 8
		if dequant[q] != want || Dequantize(uint16(q)) != want {
			t.Fatalf("q=%d: table %v, Dequantize %v, want %v", q, dequant[q], Dequantize(uint16(q)), want)
		}
		if got := Quantize(want); got != uint16(q) {
			t.Fatalf("Quantize(Dequantize(%d)) = %d", q, got)
		}
	}
}

func TestSignatureDeterministic(t *testing.T) {
	v := vector.New([]vector.Entry{{Ind: 1, Val: 0.5}, {Ind: 3, Val: -1.2}, {Ind: 7, Val: 2}})
	a := NewBlockFamily(10, 128, 128, 9).SignatureN(v, 128)
	b := NewBlockFamily(10, 128, 128, 9).SignatureN(v, 128)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestScaledVectorSameSignature(t *testing.T) {
	// h(x) depends only on the direction of x.
	f := NewBlockFamily(16, 256, 128, 3)
	v := vector.New([]vector.Entry{{Ind: 0, Val: 1}, {Ind: 5, Val: -2}, {Ind: 9, Val: 0.25}})
	w := v.Clone().Scale(17)
	a, b := f.SignatureN(v, 256), f.SignatureN(w, 256)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("positive scaling changed the signature")
		}
	}
}

func TestOppositeVectorFlipsAllBits(t *testing.T) {
	f := NewBlockFamily(16, 192, 64, 4)
	v := vector.New([]vector.Entry{{Ind: 2, Val: 1.5}, {Ind: 7, Val: -0.5}, {Ind: 11, Val: 3}})
	w := v.Clone().Scale(-1)
	a, b := f.SignatureN(v, 192), f.SignatureN(w, 192)
	if got := MatchCount(a, b, 0, f.MaxBits()); got != 0 {
		// Projections exactly at 0 could tie, but that is measure-zero.
		t.Errorf("antipodal vectors agree on %d bits", got)
	}
}

func TestCollisionRateApproximatesAngle(t *testing.T) {
	// Equation in §4.2: Pr[h(a)=h(b)] = 1 − θ/π. Verified over 4096
	// independent hyperplanes for a few planted angles.
	const nbits = 4096
	f := NewBlockFamily(64, nbits, 128, 5)
	src := rng.New(99)
	dense := func() vector.Vector {
		var es []vector.Entry
		for i := 0; i < 64; i++ {
			es = append(es, vector.Entry{Ind: uint32(i), Val: src.NormFloat64()})
		}
		return vector.New(es)
	}
	for trial := 0; trial < 3; trial++ {
		a, b := dense(), dense()
		want := CosineToR(vector.Cosine(a, b))
		got := float64(MatchCount(f.SignatureN(a, nbits), f.SignatureN(b, nbits), 0, nbits)) / nbits
		tol := 4 * math.Sqrt(want*(1-want)/nbits)
		if math.Abs(got-want) > tol {
			t.Errorf("trial %d: collision rate %v, want %v ± %v", trial, got, want, tol)
		}
	}
}

func TestQuantizedMatchesExactFamily(t *testing.T) {
	// The 2-byte storage scheme must agree with exact float projections
	// on essentially every bit (disagreement only when a projection is
	// within quantization error of zero). The exact family is the
	// float64 stream oracle: the Gaussian draws the quantized
	// coefficients approximate.
	const (
		nbits = 1024
		bb    = 128
	)
	src := rng.New(123)
	var es []vector.Entry
	for i := 0; i < 32; i++ {
		es = append(es, vector.Entry{Ind: uint32(i), Val: src.NormFloat64()})
	}
	v := vector.New(es)
	q := NewBlockFamily(32, nbits, bb, 6).SignatureN(v, nbits)
	e := oracleSignature(6, v, nbits/bb, bb, false)
	if agree := MatchCount(q, e, 0, nbits); agree < nbits-8 {
		t.Errorf("quantized and exact families agree on only %d/%d bits", agree, nbits)
	}
}

func TestMatchCountSubrangesAgainstNaive(t *testing.T) {
	src := rng.New(77)
	a := []uint64{src.Uint64(), src.Uint64(), src.Uint64()}
	b := []uint64{src.Uint64(), src.Uint64(), src.Uint64()}
	naive := func(from, to int) int {
		n := 0
		for i := from; i < to; i++ {
			if Bit(a, i) == Bit(b, i) {
				n++
			}
		}
		return n
	}
	cases := [][2]int{{0, 192}, {0, 64}, {64, 128}, {10, 50}, {60, 70}, {0, 1}, {191, 192}, {33, 33}, {100, 180}}
	for _, c := range cases {
		if got, want := MatchCount(a, b, c[0], c[1]), naive(c[0], c[1]); got != want {
			t.Errorf("MatchCount(%d,%d) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

// TestMatchCountEveryRangeAgainstBits checks MatchCount — its
// single-word path and its multi-word loop alike — against a
// bit-by-bit count for every range 0 <= from <= to <= 192, over random
// words and over all-zeros and all-ones words (which agree with
// themselves everywhere and with each other nowhere).
func TestMatchCountEveryRangeAgainstBits(t *testing.T) {
	src := rng.New(78)
	zeros, ones := make([]uint64, 3), []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	random := func() []uint64 { return []uint64{src.Uint64(), src.Uint64(), src.Uint64()} }
	pairs := [][2][]uint64{{random(), random()}, {random(), random()}, {zeros, ones}, {ones, ones}, {zeros, zeros}, {ones, random()}}
	for pi, p := range pairs {
		a, b := p[0], p[1]
		for from := 0; from <= 192; from++ {
			want := 0
			for to := from; to <= 192; to++ {
				if to > from && Bit(a, to-1) == Bit(b, to-1) {
					want++
				}
				if got := MatchCount(a, b, from, to); got != want {
					t.Fatalf("pair %d: MatchCount(%d, %d) = %d, bit by bit %d", pi, from, to, got, want)
				}
			}
		}
	}
}

// TestMatchCountsEveryRangeAgainstMatchCount checks the batched
// MatchCounts — its single-word loop and its multi-word fallback alike
// — against MatchCount for every range 0 <= from <= to <= 192, over
// random, all-zeros and all-ones signatures, with ids repeated and out
// of order, and checks that it adds to the counts it is given.
func TestMatchCountsEveryRangeAgainstMatchCount(t *testing.T) {
	src := rng.New(79)
	zeros, ones := make([]uint64, 3), []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	random := func() []uint64 { return []uint64{src.Uint64(), src.Uint64(), src.Uint64()} }
	sigs := [][]uint64{random(), zeros, ones, random(), random()}
	ids := []int32{3, 0, 2, 2, 1, 4, 0, 3, 1}
	counts := make([]int32, len(ids))
	for qi, q := range [][]uint64{random(), zeros, ones} {
		for from := 0; from <= 192; from++ {
			for to := from; to <= 192; to++ {
				for i := range counts {
					counts[i] = int32(i)
				}
				MatchCounts(q, sigs, ids, from, to, counts)
				for i, id := range ids {
					if want := int32(i + MatchCount(q, sigs[id], from, to)); counts[i] != want {
						t.Fatalf("query %d, id %d at %d: MatchCounts(%d, %d) added up to %d, want %d", qi, id, i, from, to, counts[i], want)
					}
				}
			}
		}
	}
}

// TestMatchCountsColumnEveryRange checks MatchCountsColumn, which reads
// the signatures' first words from a Column, against MatchCounts for
// every range inside word 0, under the same conditions.
func TestMatchCountsColumnEveryRange(t *testing.T) {
	src := rng.New(83)
	zeros, ones := make([]uint64, 2), []uint64{^uint64(0), ^uint64(0)}
	random := func() []uint64 { return []uint64{src.Uint64(), src.Uint64()} }
	sigs := [][]uint64{random(), zeros, ones, random(), random()}
	col := Column(sigs)
	ids := []int32{3, 0, 2, 2, 1, 4, 0, 3, 1}
	got, want := make([]int32, len(ids)), make([]int32, len(ids))
	for qi, q := range [][]uint64{random(), zeros, ones} {
		for from := 0; from <= 64; from++ {
			for to := from; to <= 64; to++ {
				for i := range got {
					got[i], want[i] = int32(i), int32(i)
				}
				MatchCountsColumn(q[0], col, ids, from, to, got)
				MatchCounts(q, sigs, ids, from, to, want)
				for i, id := range ids {
					if got[i] != want[i] {
						t.Fatalf("query %d, id %d at %d: MatchCountsColumn(%d, %d) added up to %d, MatchCounts %d", qi, id, i, from, to, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestMatchCountPropertyAgainstNaive(t *testing.T) {
	f := func(aw, bw [4]uint64, fromRaw, toRaw uint8) bool {
		a, b := aw[:], bw[:]
		from := int(fromRaw) % 257
		to := int(toRaw) % 257
		if from > to {
			from, to = to, from
		}
		if to > 256 {
			to = 256
		}
		naive := 0
		for i := from; i < to; i++ {
			if Bit(a, i) == Bit(b, i) {
				naive++
			}
		}
		return MatchCount(a, b, from, to) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMatchCountPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MatchCount beyond signature did not panic")
		}
	}()
	MatchCount([]uint64{0}, []uint64{0}, 0, 65)
}

func TestRCosineTransformsInverse(t *testing.T) {
	for _, c := range []float64{-1, -0.5, 0, 0.3, 0.7, 0.95, 1} {
		if got := RToCosine(CosineToR(c)); math.Abs(got-c) > 1e-12 {
			t.Errorf("r2c(c2r(%v)) = %v", c, got)
		}
	}
	// Known anchors: cosine 0 ↔ r = 0.5; cosine 1 ↔ r = 1.
	if got := CosineToR(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("c2r(0) = %v, want 0.5", got)
	}
	if got := CosineToR(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("c2r(1) = %v, want 1", got)
	}
	if got := CosineToR(5); math.Abs(got-1) > 1e-12 {
		t.Errorf("c2r clamps above: %v", got)
	}
}
