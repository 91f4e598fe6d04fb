package sighash

import (
	"testing"

	"bayeslsh/internal/rng"
	"bayeslsh/internal/testutil"
	"bayeslsh/internal/vector"
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

// TestQuerySigMatchesSignatureN is the oracle test of the lazy query
// signature: extended in any increments — single bits, random steps,
// depths straddling a block, zero — every prefix it has filled equals
// the one-shot SignatureN at full capacity, everything past it is
// still zero, and asking beyond capacity panics like SignatureN. It
// covers an empty vector (all-ones by the >= 0 convention) and a
// vector with features beyond Dim, which the query signature drops.
func TestQuerySigMatchesSignatureN(t *testing.T) {
	c := testutil.SmallTextCorpus(t, 12, 5)
	fam := NewBlockFamily(c.Dim, 512, 128, 17)
	beyond := vector.New([]vector.Entry{{Ind: 0, Val: 0.6}, {Ind: uint32(c.Dim) + 3, Val: 0.8}})
	cases := append([]vector.Vector{{}, beyond}, c.Vecs...)
	src := rng.New(23)
	for i, v := range cases {
		hashed := v
		if i == 1 {
			hashed = vector.Vector{Ind: v.Ind[:1], Val: v.Val[:1]}
		}
		want := fam.SignatureN(hashed, fam.MaxBits())
		steps := map[string][]int{
			"1-bit":      nil,
			"random":     nil,
			"straddling": {0, 100, 127, 129, 255, 257, 383, 385, 512},
		}
		for n := 0; n <= fam.MaxBits(); n++ {
			steps["1-bit"] = append(steps["1-bit"], n)
		}
		for n := 0; n < fam.MaxBits(); n += 1 + src.Intn(150) {
			steps["random"] = append(steps["random"], n)
		}
		for name, ns := range steps {
			q := fam.NewQuerySig(v)
			for _, n := range ns {
				q.Ensure(n)
				if wantFilled := (n + 127) / 128 * 128; q.Filled() != wantFilled {
					t.Fatalf("case %d %s: Ensure(%d) filled %d bits, want %d", i, name, n, q.Filled(), wantFilled)
				}
				for w, got := range q.Bits() {
					if w < q.Filled()/64 && got != want[w] {
						t.Fatalf("case %d %s: after Ensure(%d) word %d = %x, SignatureN %x", i, name, n, w, got, want[w])
					}
					if w >= q.Filled()/64 && got != 0 {
						t.Fatalf("case %d %s: after Ensure(%d) unfilled word %d = %x", i, name, n, w, got)
					}
				}
			}
		}
	}
	if got := fam.SignatureN(vector.Vector{}, 128)[0]; got != ^uint64(0) {
		t.Fatalf("empty vector signature word %x, want all ones", got)
	}
	q := fam.NewQuerySig(c.Vecs[0])
	q.Ensure(fam.MaxBits())
	defer func() {
		if recover() == nil {
			t.Errorf("Ensure beyond capacity did not panic")
		}
	}()
	q.Ensure(fam.MaxBits() + 1)
}
