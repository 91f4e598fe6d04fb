package bayeslsh

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// badHeaders are dataset headers ReadDataset once accepted: a negative
// dimensionality, on which TfIdf panicked sizing its per-feature
// arrays; one past every uint32 feature index; and one with trailing
// text, read as dim 5.
var badHeaders = []string{"dim -1\n", "dim 4294967297\n", "dim 5x\n0:1\n"}

// TestReadDatasetRefusesBadHeaders: ReadDataset, the reader behind the
// -file flag of apss build, query and serve, refuses each bad header.
func TestReadDatasetRefusesBadHeaders(t *testing.T) {
	for _, h := range badHeaders {
		if ds, err := ReadDataset(strings.NewReader(h)); err == nil {
			t.Errorf("ReadDataset(%q) accepted dim %d", h, ds.Dim())
		}
	}
}

// FuzzReadDataset fuzzes ReadDataset: any bytes may fail but must
// never panic, and every dataset it accepts goes through
// TfIdf().Normalize(), Binarize() and NewEngine under every measure
// without a panic, NewEngine failing only on an empty dataset. That
// downstream step is skipped when the declared dim exceeds 1<<20:
// per-feature arrays (TfIdf's document frequencies among them) are
// dense by design, so a header alone may size them in gigabytes. The
// seeds are the first vectors of every built-in synthetic corpus and
// the bad headers; the crashers are committed under testdata/fuzz.
func FuzzReadDataset(f *testing.F) {
	for _, name := range SyntheticNames() {
		ds, err := Synthetic(name)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ds.Slice(0, 4).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, h := range badHeaders {
		f.Add([]byte(h))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadDataset(bytes.NewReader(data))
		if err != nil || ds.Dim() > 1<<20 {
			return
		}
		weighted, binary := ds.TfIdf().Normalize(), ds.Binarize()
		for _, c := range []struct {
			m Measure
			d *Dataset
		}{{Cosine, weighted}, {Jaccard, binary}, {BinaryCosine, binary}} {
			if _, err := NewEngine(c.d, c.m, EngineConfig{}); err != nil && !(ds.Len() == 0 && errors.Is(err, ErrEmptyDataset)) {
				t.Fatalf("NewEngine under %v: %v", c.m, err)
			}
		}
	})
}
