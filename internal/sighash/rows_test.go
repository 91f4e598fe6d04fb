package sighash

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"bayeslsh/internal/rng"
	"bayeslsh/internal/vector"
)

// oracleSums returns v's projections onto the bb hyperplanes of block
// b without a family: every coefficient is regenerated straight from
// its (seed, feature, block) stream at the moment it is multiplied, and
// the features are added one at a time — with quantized coefficients,
// the definition the row-lazy, register-blocked kernel must reproduce
// bit for bit; with the exact Gaussian draws, the hyperplanes the
// quantized ones approximate (§4.3).
func oracleSums(seed uint64, v vector.Vector, b, bb int, quantized bool) []float64 {
	acc := make([]float64, bb)
	for i, feat := range v.Ind {
		src := rng.New(rng.Mix64(seed ^ (uint64(feat) + 1) ^ uint64(b+1)<<40))
		for j := range acc {
			g := src.NormFloat64()
			if quantized {
				g = Dequantize(Quantize(g))
			}
			acc[j] += float64(v.Val[i] * g)
		}
	}
	return acc
}

// oracleSignature hashes v through blocks [0, blocks) from oracleSums.
func oracleSignature(seed uint64, v vector.Vector, blocks, bb int, quantized bool) []uint64 {
	sig := make([]uint64, blocks*bb/64)
	for b := 0; b < blocks; b++ {
		for j, a := range oracleSums(seed, v, b, bb, quantized) {
			if a >= 0 {
				sig[(b*bb+j)/64] |= 1 << ((b*bb + j) % 64)
			}
		}
	}
	return sig
}

// edgeVectors returns vectors of every length 0–5, so the empty vector
// and every remainder of the kernel's 4-feature group are hashed, and
// one vector of 2·chunkRows+3 distinct features, whose rows span three
// arena chunks of every block it touches.
func edgeVectors(dim int, seed uint64) []vector.Vector {
	src := rng.New(seed)
	var vs []vector.Vector
	for _, l := range []int{0, 1, 2, 3, 4, 5, 2*chunkRows + 3} {
		m := map[uint32]float64{}
		for len(m) < l {
			m[uint32(src.Intn(dim))] = src.NormFloat64()
		}
		vs = append(vs, vector.FromMap(m))
	}
	return vs
}

// signItem is one unit of hashing work: block b of vector id.
type signItem struct{ id, b int }

// signInOrder hashes the items over workers goroutines (worker w takes
// items w, w+workers, ...), so the family's rows materialize in the
// order the items dictate, and returns the assembled signatures.
// Blocks are word-aligned, so two workers never write the same word.
func signInOrder(fam *BlockFamily, c *vector.Collection, items []signItem, workers int) [][]uint64 {
	sigs := make([][]uint64, len(c.Vecs))
	for id := range sigs {
		sigs[id] = make([]uint64, fam.MaxBits()/64)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := make([]float64, fam.BlockBits())
			for i := w; i < len(items); i += workers {
				it := items[i]
				fam.signBlock(c.Vecs[it.id], it.b, sigs[it.id], acc)
			}
		}(w)
	}
	wg.Wait()
	return sigs
}

// TestRowLazyMatchesStreamOracle is the lazy ≡ dense gate: whatever
// order rows are first touched in — ascending, descending, shuffled,
// or the deepest block before block 0 — and however many workers
// touch them, every signature equals the one computed directly from
// the quantized streams (quantized=true). Against the exact Gaussian
// draws of the same streams (quantized=false) every signature agrees
// on all but at most 8 of its bits: quantization moves each
// coefficient by less than 2⁻¹², which can flip only a bit whose
// projection is nearly zero.
func TestRowLazyMatchesStreamOracle(t *testing.T) {
	const (
		dim    = 600
		bb     = 128
		blocks = 4
		nbits  = blocks * bb
		seed   = 77
	)
	c := storeCorpus(240, dim, 31)
	c.Vecs = append(c.Vecs, edgeVectors(dim, 13)...)
	n := len(c.Vecs)

	var asc, desc, deepFirst []signItem
	for id := 0; id < n; id++ {
		for b := 0; b < blocks; b++ {
			asc = append(asc, signItem{id, b})
		}
	}
	for i := len(asc) - 1; i >= 0; i-- {
		desc = append(desc, asc[i])
	}
	for b := blocks - 1; b >= 0; b-- {
		for id := 0; id < n; id++ {
			deepFirst = append(deepFirst, signItem{id, b})
		}
	}
	shuffled := append([]signItem(nil), asc...)
	src := rng.New(5)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	orders := []struct {
		name  string
		items []signItem
	}{{"ascending", asc}, {"descending", desc}, {"shuffled", shuffled}, {"deep-block-first", deepFirst}}

	for _, quantized := range []bool{true, false} {
		slack := 0
		if !quantized {
			slack = 8
		}
		want := make([][]uint64, n)
		for id, v := range c.Vecs {
			want[id] = oracleSignature(seed, v, blocks, bb, quantized)
		}
		for _, o := range orders {
			for _, workers := range []int{1, 2, 4, 7} {
				t.Run(fmt.Sprintf("quantized=%v/%s/workers=%d", quantized, o.name, workers), func(t *testing.T) {
					fam := NewBlockFamily(dim, nbits, bb, seed)
					got := signInOrder(fam, c, o.items, workers)
					for id := range want {
						if agree := MatchCount(got[id], want[id], 0, nbits); agree < nbits-slack {
							t.Fatalf("vector %d: family and stream oracle agree on %d/%d bits, want at least %d",
								id, agree, nbits, nbits-slack)
						}
					}
				})
			}
		}
	}
}

// TestKernelSumsMatchStreamOracle compares the kernel's sums, not just
// their signs, with the one-feature-at-a-time oracle, bit for bit: a
// reordered or fused addition changes a sum's last bit far more often
// than it flips a signature bit.
func TestKernelSumsMatchStreamOracle(t *testing.T) {
	const (
		dim    = 1000
		bb     = 128
		blocks = 3
		seed   = 59
	)
	vs := append(edgeVectors(dim, 19), storeCorpus(200, dim, 37).Vecs...)
	fam := NewBlockFamily(dim, blocks*bb, bb, seed)
	sig := make([]uint64, blocks*bb/64)
	acc := make([]float64, bb)
	for _, v := range vs {
		for b := 0; b < blocks; b++ {
			fam.signBlock(v, b, sig, acc)
			for j, want := range oracleSums(seed, v, b, bb, true) {
				if math.Float64bits(acc[j]) != math.Float64bits(want) {
					t.Fatalf("vector of %d features, block %d, hyperplane %d: sum %v, stream oracle %v",
						v.Len(), b, j, acc[j], want)
				}
			}
		}
	}
}

// TestEveryHashingPathMatchesStreamOracle checks the three callers of
// the hashing kernel — a Store fill, a one-shot SignatureN and a
// QuerySig deepened one block at a time — against the stream oracle on
// the edge lengths, each on a fresh family so every path also
// materializes the rows it reads.
func TestEveryHashingPathMatchesStreamOracle(t *testing.T) {
	const (
		dim    = 1000
		bb     = 128
		blocks = 3
		seed   = 61
	)
	c := &vector.Collection{Dim: dim, Vecs: edgeVectors(dim, 17)}
	fam := func() *BlockFamily { return NewBlockFamily(dim, blocks*bb, bb, seed) }
	st := NewStore(c, fam())
	ensureAll(t, st, blocks*bb)
	one, lazy := fam(), fam()
	for id, v := range c.Vecs {
		want := oracleSignature(seed, v, blocks, bb, true)
		q := lazy.NewQuerySig(v)
		for b := 1; b <= blocks; b++ {
			q.Ensure(b*bb - bb/2)
		}
		for _, p := range []struct {
			name string
			sig  []uint64
		}{{"Store.Ensure", st.Sigs()[id]}, {"SignatureN", one.SignatureN(v, blocks*bb)}, {"QuerySig.Ensure", q.Bits()}} {
			for w := range want {
				if p.sig[w] != want[w] {
					t.Fatalf("%s: vector of %d features, word %d: %x, stream oracle %x",
						p.name, v.Len(), w, p.sig[w], want[w])
				}
			}
		}
	}
}

// TestRowsGeneratedOncePerBlockFeature hammers one family from many
// goroutines hashing vectors with heavily overlapping feature sets
// through all 16 blocks (run it under -race): every goroutine must see
// the reference signatures, and the family must have generated exactly
// one row per distinct (block, feature) pair touched — a row two
// workers race for is generated by one of them, never both.
func TestRowsGeneratedOncePerBlockFeature(t *testing.T) {
	const (
		n, dim     = 48, 400
		hot        = 60 // every vector draws its features from [0, hot)
		bits       = 2048
		goroutines = 8
	)
	src := rng.New(19)
	c := &vector.Collection{Dim: dim}
	used := map[uint32]bool{}
	for i := 0; i < n; i++ {
		var es []vector.Entry
		for j := 0; j < 25; j++ {
			es = append(es, vector.Entry{Ind: uint32(src.Intn(hot)), Val: src.NormFloat64()})
		}
		v := vector.New(es)
		for _, f := range v.Ind {
			used[f] = true
		}
		c.Vecs = append(c.Vecs, v)
	}
	ref := NewBlockFamily(dim, bits, 128, 3)
	want := make([][]uint64, n)
	for id, v := range c.Vecs {
		want[id] = ref.SignatureN(v, bits)
	}

	fam := NewBlockFamily(dim, bits, 128, 3)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				id := (k*7 + g*5) % n // each goroutine walks the corpus from its own offset
				got := fam.SignatureN(c.Vecs[id], bits)
				for w := range got {
					if got[w] != want[id][w] {
						t.Errorf("goroutine %d vector %d word %d: %x, want %x", g, id, w, got[w], want[id][w])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := fam.Rows(), len(used)*bits/128; got != want {
		t.Errorf("family generated %d rows for %d distinct (block, feature) pairs", got, want)
	}
	if ref.Rows() != fam.Rows() {
		t.Errorf("concurrent family holds %d rows, sequential reference %d", fam.Rows(), ref.Rows())
	}
}

// TestFamilyFootprintFollowsTouchedRows pins what the family holds
// after hashing a corpus that uses k of dim features to depth d: at
// most k rows (and the chunks to hold them) in each block up to d,
// and nothing at all — no slot index, no chunk — in deeper blocks.
func TestFamilyFootprintFollowsTouchedRows(t *testing.T) {
	const dim, bb, depth = 5000, 128, 3
	// 40 short vectors over a 5000-feature space: k ≪ dim.
	c := storeCorpus(40, dim, 23)
	used := map[uint32]bool{}
	for _, v := range c.Vecs {
		for _, f := range v.Ind {
			used[f] = true
		}
	}
	k := len(used)
	fam := NewBlockFamily(dim, 8*bb, bb, 9)
	if fam.Rows() != 0 {
		t.Fatalf("fresh family holds %d rows", fam.Rows())
	}
	s := NewStore(c, fam)
	ensureAll(t, s, depth*bb)
	for b := range fam.blocks {
		tab := fam.blocks[b].Load()
		if b >= depth {
			if tab != nil {
				t.Errorf("untouched block %d holds a table (%d rows)", b, tab.n)
			}
			continue
		}
		if tab == nil {
			t.Fatalf("block %d below the fill depth has no table", b)
		}
		if tab.n != k {
			t.Errorf("block %d holds %d rows, corpus uses %d features", b, tab.n, k)
		}
		chunks := 0
		for i := range tab.q {
			if tab.q[i] != nil {
				chunks++
			}
		}
		if max := (k + chunkRows - 1) / chunkRows; chunks != max {
			t.Errorf("block %d allocated %d chunks for %d rows, want %d", b, chunks, k, max)
		}
	}
	if got := fam.Rows(); got != depth*k {
		t.Errorf("Rows() = %d, want %d blocks × %d features", got, depth, k)
	}
}
