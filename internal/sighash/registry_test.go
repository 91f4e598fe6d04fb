package sighash

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"bayeslsh/internal/testutil"
)

// registered reports whether the registry holds an entry for key.
func registered(key familyKey) bool {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	_, ok := registry.fams[key]
	return ok
}

// TestSharedBlockFamilyKeys: one family per key while it is held,
// parameters that NewBlockFamily rounds alike share it, any other
// parameter gets its own, and a shared family hashes exactly as a
// private one.
func TestSharedBlockFamilyKeys(t *testing.T) {
	c := testutil.SmallTextCorpus(t, 20, 45)
	f := SharedBlockFamily(c.Dim, 1024, 128, 4511)
	if g := SharedBlockFamily(c.Dim, 1000, 100, 4511); g != f {
		t.Fatal("parameters that round alike got another family")
	}
	for _, args := range [][4]int{{c.Dim + 1, 1024, 128, 4511}, {c.Dim, 2048, 128, 4511}, {c.Dim, 1024, 256, 4511}, {c.Dim, 1024, 128, 4512}} {
		if SharedBlockFamily(args[0], args[1], args[2], uint64(args[3])) == f {
			t.Errorf("SharedBlockFamily%v returned the family of other parameters", args)
		}
	}
	private := NewBlockFamily(c.Dim, 1024, 128, 4511)
	if private == f {
		t.Fatal("NewBlockFamily returned the shared family")
	}
	for _, v := range c.Vecs {
		a, b := f.SignatureN(v, 1024), private.SignatureN(v, 1024)
		for w := range a {
			if a[w] != b[w] {
				t.Fatalf("shared and private families disagree in word %d: %x vs %x", w, a[w], b[w])
			}
		}
	}
	runtime.KeepAlive(f)
}

// sharedRows takes the shared family of key, materializes rows in it
// and drops it, returning how many rows it held before and after.
func sharedRows(t *testing.T, key familyKey) (before, after int) {
	t.Helper()
	c := testutil.SmallTextCorpus(t, 10, 46)
	f := SharedBlockFamily(key.dim, key.maxBits, key.blockBits, key.seed)
	before = f.Rows()
	f.SignatureN(c.Vecs[0], key.maxBits)
	return before, f.Rows()
}

// TestSharedBlockFamilyDroppedWithLastHolder: the registry keeps no
// family alive. Once the last holder is gone and the collector has run,
// the key leaves the registry (cleanups run asynchronously, so the test
// polls), and the next caller starts a family from scratch.
func TestSharedBlockFamilyDroppedWithLastHolder(t *testing.T) {
	c := testutil.SmallTextCorpus(t, 10, 46)
	key := newFamilyKey(c.Dim, 256, 128, 4513)
	waitDropped := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for registered(key) {
			if time.Now().After(deadline) {
				t.Fatal("the key stayed registered after its family was dropped")
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}
	waitDropped() // a family an earlier run (-count) left behind
	if before, after := sharedRows(t, key); before != 0 || after == 0 {
		t.Fatalf("a new shared family held %d rows, then %d", before, after)
	}
	waitDropped()
	if before, _ := sharedRows(t, key); before != 0 {
		t.Fatalf("the family after the drop started with %d rows, want 0", before)
	}
}

// TestSharedBlockFamilyConcurrent races first calls for one key, each
// goroutine hashing the corpus through what it got: all get one family
// and the same signatures as a private family's.
func TestSharedBlockFamilyConcurrent(t *testing.T) {
	c := testutil.SmallTextCorpus(t, 60, 47)
	want := NewStore(c, NewBlockFamily(c.Dim, 512, 128, 4514))
	ensureAll(t, want, 512)
	got := make([]*BlockFamily, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = SharedBlockFamily(c.Dim, 512, 128, 4514)
			s := NewStore(c, got[g])
			for id := range s.Sigs() {
				s.Ensure(int32(id), 128*(g%4+1))
			}
		}()
	}
	wg.Wait()
	for g, f := range got {
		if f != got[0] {
			t.Fatalf("goroutine %d got its own family", g)
		}
	}
	s := NewStore(c, got[0])
	ensureAll(t, s, 512)
	requireSameSigs(t, s, want)
}
