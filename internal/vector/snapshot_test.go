package vector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"bayeslsh/internal/snapshot"
)

func encodeCollection(c *Collection) []byte {
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	c.WriteSnapshot(w)
	w.Sum()
	b := buf.Bytes()
	return b[:len(b)-4] // codec tests decode without the file checksum
}

// TestCollectionSnapshotRoundTrip checks structural equality through
// the codec.
func TestCollectionSnapshotRoundTrip(t *testing.T) {
	c := &Collection{Dim: 10, Vecs: []Vector{
		{Ind: []uint32{1, 4, 9}, Val: []float64{0.5, -1, 2}},
		{}, // empty vector round-trips too
		{Ind: []uint32{0}, Val: []float64{3}},
	}}
	got, err := ReadCollectionSnapshot(snapshot.NewReader(encodeCollection(c)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != c.Dim || len(got.Vecs) != len(c.Vecs) {
		t.Fatalf("shape: %d/%d, want %d/%d", got.Dim, len(got.Vecs), c.Dim, len(c.Vecs))
	}
	for i := range c.Vecs {
		if !Equal(got.Vecs[i], c.Vecs[i]) {
			t.Fatalf("vector %d: %+v != %+v", i, got.Vecs[i], c.Vecs[i])
		}
	}
}

// TestCollectionSnapshotRejectsBadDim covers the hostile-input bound
// on dimensionality: zero Dim (which would panic dimension-sized
// consumers such as the hyperplane family) and absurd Dim (which
// would drive multi-gigabyte per-feature allocations) must both fail
// cleanly at decode.
func TestCollectionSnapshotRejectsBadDim(t *testing.T) {
	// Dim is the collection's leading u32. It is written into the
	// encoded bytes directly, since 1<<31 overflows a 32-bit int.
	for _, dim := range []uint32{0, MaxSnapshotDim + 1, 1 << 31} {
		b := encodeCollection(&Collection{Dim: 1, Vecs: []Vector{{}}})
		binary.LittleEndian.PutUint32(b, dim)
		_, err := ReadCollectionSnapshot(snapshot.NewReader(b))
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("dim %d: %v, want ErrCorrupt", dim, err)
		}
	}
	// The boundary itself is fine.
	c := &Collection{Dim: 1, Vecs: []Vector{{Ind: []uint32{0}, Val: []float64{1}}}}
	if _, err := ReadCollectionSnapshot(snapshot.NewReader(encodeCollection(c))); err != nil {
		t.Fatalf("dim 1: %v", err)
	}
}

// TestVectorSnapshotRejectsMalformed checks the decoder enforces the
// Vector invariants rather than trusting the bytes.
func TestVectorSnapshotRejectsMalformed(t *testing.T) {
	encode := func(ind []uint32, val []float64) []byte {
		var buf bytes.Buffer
		w := snapshot.NewWriter(&buf)
		w.U32s(ind)
		w.F64s(val)
		w.Sum()
		b := buf.Bytes()
		return b[:len(b)-4]
	}
	cases := []struct {
		name string
		ind  []uint32
		val  []float64
	}{
		{"length mismatch", []uint32{1, 2}, []float64{1}},
		{"non-increasing indices", []uint32{5, 5}, []float64{1, 2}},
		{"zero weight", []uint32{1}, []float64{0}},
	}
	for _, c := range cases {
		if _, err := ReadVectorSnapshot(snapshot.NewReader(encode(c.ind, c.val))); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("%s: %v, want ErrCorrupt", c.name, err)
		}
	}
}
