package lshindex

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"testing"
	"time"

	"bayeslsh/internal/minhash"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/testutil"
)

// bandCollisions is the oracle of the banding tests: every pair of the
// n signatures that collides in at least one of the l bands, found by
// comparing all pairs band by band, in ascending (A, B) order.
func bandCollisions(n, l int, collide func(i, j, band int) bool) []pair.Pair {
	var out []pair.Pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for band := 0; band < l; band++ {
				if collide(i, j, band) {
					out = append(out, pair.Make(int32(i), int32(j)))
					break
				}
			}
		}
	}
	return out
}

// requireBandingInvariant checks that gen returns the oracle's
// candidates, in the oracle's canonical (A, B) order, for every worker
// count and kind of never-canceled context.
func requireBandingInvariant(t *testing.T, want []pair.Pair, gen func(ctx context.Context, workers int) ([]pair.Pair, error)) {
	t.Helper()
	if len(want) == 0 {
		t.Fatal("oracle found no collisions; the corpus exercises nothing")
	}
	for name, ctx := range testutil.Contexts(t) {
		for _, workers := range []int{1, 2, 4, 7} {
			got, err := gen(ctx, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			testutil.RequireSameSequence(t, fmt.Sprintf("%s workers=%d", name, workers), got, want)
		}
	}
}

func TestCandidatesBitsParallelMatchesSequential(t *testing.T) {
	c := testutil.SmallTextCorpus(t, 300, 21)
	sigs := bitSigs(c, 256, 77)
	const k, l = 8, 16
	want := bandCollisions(len(sigs), l, func(i, j, band int) bool {
		return bitsBand(sigs[i], band*k, k) == bitsBand(sigs[j], band*k, k)
	})
	requireBandingInvariant(t, want, func(ctx context.Context, workers int) ([]pair.Pair, error) {
		return CandidatesBitsCtx(ctx, sigs, k, l, workers)
	})
}

func TestCandidatesBitsMultiProbeParallelMatchesSequential(t *testing.T) {
	c := testutil.SmallTextCorpus(t, 300, 22)
	sigs := bitSigs(c, 256, 78)
	const k, l = 8, 8
	want := bandCollisions(len(sigs), l, func(i, j, band int) bool {
		return bits.OnesCount64(bitsBand(sigs[i], band*k, k)^bitsBand(sigs[j], band*k, k)) <= 1
	})
	requireBandingInvariant(t, want, func(ctx context.Context, workers int) ([]pair.Pair, error) {
		return CandidatesBitsMultiProbeCtx(ctx, sigs, k, l, workers)
	})
}

func TestCandidatesMinhashParallelMatchesSequential(t *testing.T) {
	c := testutil.SmallBinaryCorpus(t, 300, 23)
	sigs := minhash.NewFamily(96, 79).SignatureAll(c)
	const k, l = 3, 32
	a, b := make([]uint64, (k+1)/2), make([]uint64, (k+1)/2)
	want := bandCollisions(len(sigs), l, func(i, j, band int) bool {
		return minhashBandKey(sigs[i], band, k, a) == minhashBandKey(sigs[j], band, k, b)
	})
	requireBandingInvariant(t, want, func(ctx context.Context, workers int) ([]pair.Pair, error) {
		return CandidatesMinhashCtx(ctx, sigs, k, l, workers)
	})
}

// TestBandingPrefix: the first l bands of a wider banding are the
// banding of l bands — the row phase over Prefix(l) enumerates exactly
// the l-band oracle's candidates, with and without multi-probe.
func TestBandingPrefix(t *testing.T) {
	c := testutil.SmallTextCorpus(t, 300, 24)
	sigs := bitSigs(c, 256, 80)
	const k, wide = 8, 16
	for _, multiProbe := range []bool{false, true} {
		b, err := BandBitsCtx(context.Background(), sigs, k, wide, multiProbe, 2)
		if err != nil {
			t.Fatal(err)
		}
		if b.Tables() != wide {
			t.Fatalf("Tables() = %d, want %d", b.Tables(), wide)
		}
		for _, l := range []int{1, 5, wide} {
			p := b.Prefix(l)
			if p.Tables() != l {
				t.Fatalf("Prefix(%d).Tables() = %d", l, p.Tables())
			}
			want := bandCollisions(len(sigs), l, func(i, j, band int) bool {
				d := bits.OnesCount64(bitsBand(sigs[i], band*k, k) ^ bitsBand(sigs[j], band*k, k))
				return d == 0 || multiProbe && d == 1
			})
			requireBandingInvariant(t, want, func(ctx context.Context, workers int) ([]pair.Pair, error) {
				return collect(ctx, p, workers)
			})
		}
	}
}

func TestParallelValidation(t *testing.T) {
	ctx := context.Background()
	sigs := [][]uint64{{0}, {1}}
	if _, err := CandidatesBitsCtx(ctx, sigs, 8, 100, 4); err == nil {
		t.Error("short signatures accepted")
	}
	if _, err := CandidatesBitsMultiProbeCtx(ctx, sigs, 70, 1, 4); err == nil {
		t.Error("k > 64 accepted")
	}
	if _, err := CandidatesMinhashCtx(ctx, [][]uint32{{1}}, 3, 100, 4); err == nil {
		t.Error("short minhash signatures accepted")
	}
}

// identicalBitSigs returns n copies of one signature: every band puts
// all n ids in one bucket, so a full enumeration costs l·n²/2 pairs —
// far longer than the cancellation tests below let it run.
func identicalBitSigs(n, words int) [][]uint64 {
	sigs := make([][]uint64, n)
	for i := range sigs {
		sigs[i] = make([]uint64, words)
	}
	return sigs
}

// identicalMinSigs is identicalBitSigs for minhash signatures.
func identicalMinSigs(n, hashes int) [][]uint32 {
	sigs := make([][]uint32, n)
	for i := range sigs {
		sigs[i] = make([]uint32, hashes)
	}
	return sigs
}

// TestCandidatesIdenticalSignatures bands signatures that collide in
// every band: each pair must come out exactly once, in (A, B) order,
// however many bands it collides in.
func TestCandidatesIdenticalSignatures(t *testing.T) {
	const n, k, l = 40, 8, 16
	want := bandCollisions(n, 1, func(_, _, _ int) bool { return true })
	bits, mins := identicalBitSigs(n, 2), identicalMinSigs(n, k*l)
	for name, gen := range map[string]func(workers int) ([]pair.Pair, error){
		"bits": func(w int) ([]pair.Pair, error) { return CandidatesBitsCtx(context.Background(), bits, k, l, w) },
		"multiprobe": func(w int) ([]pair.Pair, error) {
			return CandidatesBitsMultiProbeCtx(context.Background(), bits, k, l, w)
		},
		"minhash": func(w int) ([]pair.Pair, error) { return CandidatesMinhashCtx(context.Background(), mins, k, l, w) },
	} {
		for _, workers := range []int{1, 3} {
			got, err := gen(workers)
			if err != nil {
				t.Fatal(err)
			}
			testutil.RequireSameSequence(t, fmt.Sprintf("%s workers=%d", name, workers), got, want)
		}
	}
}

func TestCandidatesPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sigs := identicalBitSigs(1500, 16)
	start := time.Now()
	for _, gen := range []func() ([]pair.Pair, error){
		func() ([]pair.Pair, error) { return CandidatesBitsCtx(ctx, sigs, 8, 128, 4) },
		func() ([]pair.Pair, error) { return CandidatesBitsMultiProbeCtx(ctx, sigs, 8, 128, 4) },
		func() ([]pair.Pair, error) {
			return CandidatesMinhashCtx(ctx, [][]uint32{make([]uint32, 96), make([]uint32, 96)}, 3, 32, 4)
		},
	} {
		if out, err := gen(); !errors.Is(err, context.Canceled) || out != nil {
			t.Errorf("dead context: %d candidates, err %v", len(out), err)
		}
	}
	// No band may have been enumerated: one band alone is >1M pairs.
	if d := time.Since(start); d > time.Second {
		t.Errorf("dead-context calls took %v — work was done", d)
	}
}

// TestCandidatesCancelMidRun lets the deadline expire inside the
// collision enumeration and requires ctx.Err(), no partial candidate
// set and every band worker drained.
func TestCandidatesCancelMidRun(t *testing.T) {
	sigs, mins := identicalBitSigs(1500, 16), identicalMinSigs(1500, 3*128)
	for name, gen := range map[string]func(context.Context) ([]pair.Pair, error){
		"bits": func(ctx context.Context) ([]pair.Pair, error) { return CandidatesBitsCtx(ctx, sigs, 8, 128, 4) },
		"multiprobe": func(ctx context.Context) ([]pair.Pair, error) {
			return CandidatesBitsMultiProbeCtx(ctx, sigs, 8, 128, 4)
		},
		"minhash": func(ctx context.Context) ([]pair.Pair, error) { return CandidatesMinhashCtx(ctx, mins, 3, 128, 4) },
	} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		out, err := gen(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || out != nil {
			t.Errorf("%s: %d candidates, err %v", name, len(out), err)
		}
		testutil.RequireNoGoroutineLeak(t, base)
	}
}
