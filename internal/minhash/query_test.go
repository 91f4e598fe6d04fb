package minhash

import (
	"testing"

	"bayeslsh/internal/rng"
	"bayeslsh/internal/vector"
)

// TestQuerySigMatchesSignatureN is the oracle test of the lazy query
// signature: extended in any increments — single hashes, random steps,
// depths straddling the store's 32-hash blocks, zero — every prefix it
// has filled equals SignatureN at full capacity (itself checked hash by
// hash against Hash), everything past it is still zero, and asking
// beyond capacity panics like SignatureN. The empty set fills with the
// Empty sentinel.
func TestQuerySigMatchesSignatureN(t *testing.T) {
	fam := NewFamily(200, 41)
	src := rng.New(7)
	cases := []vector.Vector{{}, setVec(3), setVec(1, 5, 9, 100), benchSet(60, 5000, 3)}
	for ci, v := range cases {
		want := fam.SignatureN(v, fam.Size())
		for i, h := range want {
			if h != fam.Hash(i, v) {
				t.Fatalf("case %d: SignatureN hash %d = %d, Hash says %d", ci, i, h, fam.Hash(i, v))
			}
			if v.Len() == 0 && h != Empty {
				t.Fatalf("empty set hash %d = %d, want Empty", i, h)
			}
		}
		steps := map[string][]int{
			"1-step":     nil,
			"random":     nil,
			"straddling": {0, 31, 33, 63, 65, 128, 199, 200},
		}
		for n := 0; n <= fam.Size(); n++ {
			steps["1-step"] = append(steps["1-step"], n)
		}
		for n := 0; n < fam.Size(); n += 1 + src.Intn(70) {
			steps["random"] = append(steps["random"], n)
		}
		for name, ns := range steps {
			q := fam.NewQuerySig(v)
			for _, n := range ns {
				q.Ensure(n)
				if q.Filled() != n {
					t.Fatalf("case %d %s: Ensure(%d) filled %d", ci, name, n, q.Filled())
				}
				for i, got := range q.Hashes() {
					if i < n && got != want[i] {
						t.Fatalf("case %d %s: after Ensure(%d) hash %d = %d, SignatureN %d", ci, name, n, i, got, want[i])
					}
					if i >= n && got != 0 {
						t.Fatalf("case %d %s: after Ensure(%d) unfilled hash %d = %d", ci, name, n, i, got)
					}
				}
			}
		}
	}
	q := fam.NewQuerySig(setVec(1, 2))
	q.Ensure(fam.Size())
	defer func() {
		if recover() == nil {
			t.Error("Ensure beyond capacity did not panic")
		}
	}()
	q.Ensure(fam.Size() + 1)
}
