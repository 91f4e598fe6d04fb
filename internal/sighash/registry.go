package sighash

import (
	"runtime"
	"sync"
	"weak"
)

// familyKey is what a BlockFamily is a pure function of, after
// NewBlockFamily's rounding.
type familyKey struct {
	dim, maxBits, blockBits int
	seed                    uint64
}

// registry maps each key to the one family of those parameters that
// some holder still keeps reachable. It holds weak pointers only, so it
// keeps no family alive: a family lives exactly as long as its last
// holder, and a cleanup drops the key once the family is collected.
// There is no capacity bound, because an entry costs a few words and
// outlives nothing.
var registry = struct {
	mu   sync.Mutex
	fams map[familyKey]weak.Pointer[BlockFamily]
}{fams: map[familyKey]weak.Pointer[BlockFamily]{}}

// SharedBlockFamily returns the process's family for these parameters:
// the one some holder already keeps alive, or else a new one, which
// later calls share for as long as anything holds it. Its rows are
// thus materialized once per process however many holders hash
// through it — the family is a pure function of its parameters (see
// BlockFamily), so sharing changes no signature bit, only who pays for
// a row first. Arguments are checked and rounded as NewBlockFamily
// does, so parameters that round alike share one family.
func SharedBlockFamily(dim, maxBits, blockBits int, seed uint64) *BlockFamily {
	key := newFamilyKey(dim, maxBits, blockBits, seed)
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if f := registry.fams[key].Value(); f != nil {
		return f
	}
	f := newBlockFamily(key)
	registry.fams[key] = weak.Make(f)
	runtime.AddCleanup(f, dropFamily, key)
	return f
}

// dropFamily removes key from the registry once its family has been
// collected, unless a newer family of the same parameters, still
// alive, has taken the key since.
func dropFamily(key familyKey) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if w, ok := registry.fams[key]; ok && w.Value() == nil {
		delete(registry.fams, key)
	}
}
