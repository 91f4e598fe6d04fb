package minhash

import (
	"math"

	"bayeslsh/internal/rng"
	"bayeslsh/internal/vector"
)

// Empty is the signature value assigned by every hash function to the
// empty set. Callers performing all-pairs search should drop empty
// vectors; two empty sets collide on every hash.
const Empty = math.MaxUint32

// Family is a set of minwise hash functions. It is safe for
// concurrent use after construction.
type Family struct {
	seeds []uint64
}

// NewFamily creates n minwise hash functions derived deterministically
// from seed.
func NewFamily(n int, seed uint64) *Family {
	if n <= 0 {
		panic("minhash: NewFamily with n <= 0")
	}
	f := &Family{seeds: make([]uint64, n)}
	sm := seed
	for i := range f.seeds {
		f.seeds[i] = rng.SplitMix64(&sm)
	}
	return f
}

// Size returns the number of hash functions in the family.
func (f *Family) Size() int { return len(f.seeds) }

// Hash applies hash function i to the index set of v.
func (f *Family) Hash(i int, v vector.Vector) uint32 {
	min := uint64(math.MaxUint64)
	seed := f.seeds[i]
	for _, ind := range v.Ind {
		if h := rng.Mix64(seed ^ (uint64(ind)+1)*0x9e3779b97f4a7c15); h < min {
			min = h
		}
	}
	if min == math.MaxUint64 {
		return Empty
	}
	return uint32(min >> 32)
}

// Signature returns the full signature of v: one minhash per function
// in the family. The weights of v are ignored; minwise hashing is a
// set technique.
func (f *Family) Signature(v vector.Vector) []uint32 {
	return f.SignatureN(v, len(f.seeds))
}

// SignatureN computes the first n hashes of v's signature in one call,
// for a vector whose depth is known up front; a query, whose depth
// depends on how far its candidates' rounds read, grows a QuerySig
// instead. Hash i depends only on its own seed, so the result is the
// corresponding prefix of the full Signature.
func (f *Family) SignatureN(v vector.Vector, n int) []uint32 {
	if n > len(f.seeds) {
		panic("minhash: SignatureN beyond family capacity")
	}
	sig := make([]uint32, n)
	f.hashRange(v, 0, n, sig)
	return sig
}

// hashRange writes hashes [from, to) of v's signature into sig[from:to]
// — the one hashing loop behind SignatureN, QuerySig and Store. It makes
// one pass per element rather than per hash, mixing each element once
// per hash function and tracking every function's minimum. Keeping the
// high 32 bits of each mix before taking the minimum equals taking them
// after (the shift is monotone), and the minima start at Empty, which
// is what an empty set keeps.
func (f *Family) hashRange(v vector.Vector, from, to int, sig []uint32) {
	out := sig[from:to]
	for i := range out {
		out[i] = Empty
	}
	for _, ind := range v.Ind {
		e := (uint64(ind) + 1) * 0x9e3779b97f4a7c15
		for i, seed := range f.seeds[from:to] {
			if h := uint32(rng.Mix64(seed^e) >> 32); h < out[i] {
				out[i] = h
			}
		}
	}
}

// QuerySig is one out-of-corpus vector's signature, hashed only as
// deep as its reader has asked for — the query-side twin of a Store
// row. It holds the family, the vector, a buffer sized for the
// family's full capacity and the filled prefix; Ensure hashes just the
// missing range into that buffer in place, with SignatureN's loop, so
// every prefix is identical to SignatureN's (the empty set's included:
// all Empty). A QuerySig belongs to one query, which extends and reads
// it on one goroutine, so it takes no locks and is not safe for
// concurrent use.
type QuerySig struct {
	fam    *Family
	v      vector.Vector
	sig    []uint32
	filled int
}

// NewQuerySig starts v's signature with nothing hashed.
func (f *Family) NewQuerySig(v vector.Vector) QuerySig {
	return QuerySig{fam: f, v: v, sig: make([]uint32, len(f.seeds))}
}

// Ensure hashes the signature up to at least n hashes; a prefix
// already hashed costs nothing. It panics beyond the family's size,
// like SignatureN.
func (q *QuerySig) Ensure(n int) {
	if n <= q.filled {
		return
	}
	if n > len(q.sig) {
		panic("minhash: QuerySig.Ensure beyond family capacity")
	}
	q.fam.hashRange(q.v, q.filled, n, q.sig)
	q.filled = n
}

// Hashes returns the signature buffer. Hashes [0, Filled()) are
// computed; the rest stay zero until Ensure reaches them. The slice is
// stable for the QuerySig's lifetime.
func (q *QuerySig) Hashes() []uint32 { return q.sig }

// Filled returns how many hashes are computed.
func (q *QuerySig) Filled() int { return q.filled }

// SignatureAll computes signatures for every vector in the collection.
func (f *Family) SignatureAll(c *vector.Collection) [][]uint32 {
	sigs := make([][]uint32, len(c.Vecs))
	for i, v := range c.Vecs {
		sigs[i] = f.Signature(v)
	}
	return sigs
}

// Matches counts agreeing positions of a and b in the half-open hash
// range [from, to). It panics if the range is outside either
// signature.
func Matches(a, b []uint32, from, to int) int {
	if from < 0 || to > len(a) || to > len(b) || from > to {
		panic("minhash: Matches range out of bounds")
	}
	n := 0
	for i := from; i < to; i++ {
		if a[i] == b[i] {
			n++
		}
	}
	return n
}
