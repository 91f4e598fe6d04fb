package sighash

import (
	"fmt"
	"sync"
	"testing"

	"bayeslsh/internal/rng"
	"bayeslsh/internal/vector"
)

// oracleSignature hashes v through blocks [0, blocks) without a
// family: every coefficient is regenerated straight from its
// (seed, feature, block) stream at the moment it is multiplied — the
// definition the row-lazy family must reproduce bit for bit.
func oracleSignature(seed uint64, v vector.Vector, blocks, bb int, quantized bool) []uint64 {
	sig := make([]uint64, blocks*bb/64)
	acc := make([]float64, bb)
	for b := 0; b < blocks; b++ {
		for j := range acc {
			acc[j] = 0
		}
		for i, feat := range v.Ind {
			src := rng.New(rng.Mix64(seed ^ (uint64(feat) + 1) ^ uint64(b+1)<<40))
			for j := range acc {
				g := src.NormFloat64()
				if quantized {
					g = Dequantize(Quantize(g))
				}
				acc[j] += v.Val[i] * g
			}
		}
		for j, a := range acc {
			if a >= 0 {
				sig[(b*bb+j)/64] |= 1 << ((b*bb + j) % 64)
			}
		}
	}
	return sig
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
// touch them, in both coefficient layouts, every signature equals the
// one computed directly from the streams.
func TestRowLazyMatchesStreamOracle(t *testing.T) {
	const (
		n, dim = 240, 600
		bb     = 128
		blocks = 4
		seed   = 77
	)
	c := storeCorpus(n, dim, 31)

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
		var opts []Option
		if !quantized {
			opts = append(opts, Exact())
		}
		want := make([][]uint64, n)
		for id, v := range c.Vecs {
			want[id] = oracleSignature(seed, v, blocks, bb, quantized)
		}
		for _, o := range orders {
			for _, workers := range []int{1, 2, 4, 7} {
				t.Run(fmt.Sprintf("quantized=%v/%s/workers=%d", quantized, o.name, workers), func(t *testing.T) {
					fam := NewBlockFamily(dim, blocks*bb, bb, seed, opts...)
					got := signInOrder(fam, c, o.items, workers)
					for id := range want {
						for w := range want[id] {
							if got[id][w] != want[id][w] {
								t.Fatalf("vector %d word %d: family %x, stream oracle %x", id, w, got[id][w], want[id][w])
							}
						}
					}
				})
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
	for _, quantized := range []bool{true, false} {
		var opts []Option
		if !quantized {
			opts = append(opts, Exact())
		}
		// 40 short vectors over a 5000-feature space: k ≪ dim.
		c := storeCorpus(40, dim, 23)
		used := map[uint32]bool{}
		for _, v := range c.Vecs {
			for _, f := range v.Ind {
				used[f] = true
			}
		}
		k := len(used)
		fam := NewBlockFamily(dim, 8*bb, bb, 9, opts...)
		if fam.Rows() != 0 {
			t.Fatalf("fresh family holds %d rows", fam.Rows())
		}
		s := NewStore(c, fam)
		ensureAll(t, s, depth*bb)
		for b := range fam.blocks {
			tab := fam.blocks[b].Load()
			if b >= depth {
				if tab != nil {
					t.Errorf("quantized=%v: untouched block %d holds a table (%d rows)", quantized, b, tab.n)
				}
				continue
			}
			if tab == nil {
				t.Fatalf("quantized=%v: block %d below the fill depth has no table", quantized, b)
			}
			if tab.n != k {
				t.Errorf("quantized=%v: block %d holds %d rows, corpus uses %d features", quantized, b, tab.n, k)
			}
			chunks := 0
			for i := range tab.q {
				if tab.q[i] != nil {
					chunks++
				}
			}
			for i := range tab.x {
				if tab.x[i] != nil {
					chunks++
				}
			}
			if max := (k + chunkRows - 1) / chunkRows; chunks != max {
				t.Errorf("quantized=%v: block %d allocated %d chunks for %d rows, want %d", quantized, b, chunks, k, max)
			}
		}
		if got := fam.Rows(); got != depth*k {
			t.Errorf("quantized=%v: Rows() = %d, want %d blocks × %d features", quantized, got, depth, k)
		}
	}
}
