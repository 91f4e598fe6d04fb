package core

import (
	"math"
	"sort"
	"sync"

	"bayeslsh/internal/stats"
)

// Decision tables turn both posterior tests of the round loop into
// integer compares (§4.3): a prune table holds minM[r], an accept table
// each round's cutoffs. A table's answers depend only on its tableKey,
// so tables are interned in one process-wide registry and every
// verifier over a key — the thresholds of a sweep, a live index's
// delta verifiers, a cluster's shards — shares one build. A prune
// table is built whole with its first verifier; an accept table round
// by round, by the first verification that tests acceptance in that
// round, so a key used once (a Jaccard prior refit by a live index's
// Add) costs only the rounds its queries reach.

// tableKey is everything a table's answers depend on. Prune keys carry
// t and ε, accept keys δ and γ (the concentration test does not depend
// on t); t > 0 in every verifier, so the two never collide.
type tableKey struct {
	kind         string // "cosine", "onebit" or "jaccard"
	prior        stats.Beta
	t, eps       float64
	delta, gamma float64
	k, maxHashes int
}

// uniform is the prior of the bit verifiers' r-space posterior.
var uniform = stats.Beta{Alpha: 1, Beta: 1}

// table is one interned decision table. once guards minM of a prune
// table and the allocation of acc of an accept table, whose rounds are
// then built each under its own once.
type table struct {
	once sync.Once
	minM []int         // prune tables
	acc  []acceptRound // accept tables
	used uint64        // the registry's clock at its last intern
}

// acceptRound is one round of an accept table.
type acceptRound struct {
	once sync.Once
	cutoffs
}

// registryCap bounds the registry, so arbitrary thresholds cannot grow
// it: once full, interning a new key evicts the least recently
// interned, whose table lives on in the verifiers that hold it. The
// next verifier over an evicted key builds its tables again, as one
// over a new key does.
const registryCap = 64

var registry struct {
	sync.Mutex
	tables map[tableKey]*table
	clock  uint64
}

// intern returns the registry's table for key, unbuilt if new.
func intern(key tableKey) *table {
	registry.Lock()
	defer registry.Unlock()
	registry.clock++
	tb, ok := registry.tables[key]
	if !ok {
		if registry.tables == nil {
			registry.tables = make(map[tableKey]*table, registryCap)
		} else if len(registry.tables) == registryCap {
			var lru tableKey
			oldest := registry.clock
			for k, t := range registry.tables {
				if t.used < oldest {
					lru, oldest = k, t.used
				}
			}
			delete(registry.tables, lru)
		}
		tb = new(table)
		registry.tables[key] = tb
	}
	tb.used = registry.clock
	return tb
}

// firstTrue returns the smallest m in [lo, hi) at which f holds, or hi;
// f must be false and then true over the range.
func firstTrue(lo, hi int, f func(m int) bool) int {
	return lo + sort.Search(hi-lo, func(i int) bool { return f(lo + i) })
}

// cutoffs is one round of an accept table: the posterior after
// M(m, n) is concentrated when m < lo or m >= hi, and for m in
// [from, from+len(zone)) exactly when zone[m−from].
type cutoffs struct {
	lo, hi, from int32
	zone         []bool
}

// accepts reports whether c accepts m matches.
func (c *cutoffs) accepts(m int32) bool {
	i := m - c.from
	return m < c.lo || m >= c.hi || (i >= 0 && int(i) < len(c.zone) && c.zone[i])
}

// roundCutoffs computes the accept cutoffs of kr's concentration test
// for a round of n hashes, with the posterior evaluations spent. The
// test asks whether the δ-window around the estimate Ŝ holds posterior
// mass 1−γ. [0, n] splits at split, where the Beta(m+α, n−m+β)
// posterior (in r-space for the bit verifiers) has its mode at 1/2, and
// at zoneEnd, the first m >= split with Ŝ >= 2δ:
//
//   - Below split, as m falls the mode moves away from 1/2 and the
//     spread (about p(1−p)/(n+α+β) at mode p) shrinks, while the window
//     keeps its width or is clipped at the floor, against which the
//     posterior piles up (for the bit verifiers Ŝ = 0 there, r = 1/2).
//     So concentration holds on a prefix of [0, split).
//   - From zoneEnd up the window is clipped only at the top, where the
//     posterior piles up too. As m rises the spread shrinks and the
//     window's width in r-space does not fall (1-bit's S = 2r−1 is
//     linear, cosine's S = cos(π(1−r)) flattens toward r = 1). So
//     concentration holds on a suffix of [zoneEnd, n].
//   - In [split, zoneEnd) the window is clipped at the floor while the
//     bit verifiers' posterior is at its widest, and concentration
//     holds on an island (1-bit, n = 1,424: m = 747 accepts, 748–1,063
//     do not), so the zone keeps exact per-m answers. For Jaccard at
//     δ < 1/4 it is empty, since Ŝ >= 1/2 there.
//
// Binary search finds the prefix's end and the suffix's start. These
// are arguments from the posterior's shape, not proofs:
// TestAcceptTablesMatchPredicate checks the form at every m of every
// round over a grid of kinds, priors (uniform, skewed, U-shaped, fitted
// by FitJaccardPrior), δ, γ, K and MaxHashes.
func (kr *kernel) roundCutoffs(n int) (cutoffs, int) {
	calls := 0
	conc := func(m int) bool { calls++; return kr.concentrated(m, n) }
	split := int(math.Round((float64(n) + kr.prior.Beta - kr.prior.Alpha) / 2))
	split = min(max(split, 0), n)
	zoneEnd := firstTrue(split, n+1, func(m int) bool { return kr.estimate(m, n) >= 2*kr.params.Delta })
	c := cutoffs{
		lo:   int32(firstTrue(0, split, func(m int) bool { return !conc(m) })),
		hi:   int32(firstTrue(zoneEnd, n+1, conc)),
		from: int32(split),
		zone: make([]bool, zoneEnd-split),
	}
	for i := range c.zone {
		c.zone[i] = conc(split + i)
	}
	return c, calls
}
