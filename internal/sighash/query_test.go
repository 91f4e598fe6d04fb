package sighash

import (
	"testing"

	"bayeslsh/internal/testutil"
)

// TestSignatureNMatchesStore checks the query-hashing contract: a
// one-shot SignatureN over a corpus vector reproduces the lazily
// filled store signature bit for bit, at every block depth.
func TestSignatureNMatchesStore(t *testing.T) {
	c := testutil.SmallTextCorpus(t, 40, 21)
	fam := NewBlockFamily(c.Dim, 512, 128, 99)
	st := NewStore(c, fam)
	ensureAll(t, st, 512)
	for _, nbits := range []int{128, 256, 512} {
		for i, v := range c.Vecs {
			q := fam.SignatureN(v, nbits)
			for w := 0; w < nbits/64; w++ {
				if q[w] != st.Sigs()[i][w] {
					t.Fatalf("nbits %d vector %d word %d: query %x, store %x",
						nbits, i, w, q[w], st.Sigs()[i][w])
				}
			}
		}
	}
	// Partial-block requests round up to whole blocks.
	if got := len(fam.SignatureN(c.Vecs[0], 100)); got != 2 {
		t.Fatalf("SignatureN(100) returned %d words, want 2 (one 128-bit block)", got)
	}
}
