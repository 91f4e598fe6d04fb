package exact

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/testutil"
	"bayeslsh/internal/vector"
)

func v(entries ...vector.Entry) vector.Vector { return vector.New(entries) }

func TestMeasureSimAndString(t *testing.T) {
	a := v(vector.Entry{Ind: 0, Val: 3}, vector.Entry{Ind: 1, Val: 4})
	b := v(vector.Entry{Ind: 0, Val: 3})
	if got := Cosine.Sim(a, b); got != 3.0/5 {
		t.Errorf("cosine = %v", got)
	}
	if got := Jaccard.Sim(a, b); got != 0.5 {
		t.Errorf("jaccard = %v", got)
	}
	if got := BinaryCosine.Sim(a, b); got > 0.7072 || got < 0.7070 {
		t.Errorf("binary cosine = %v", got)
	}
	for _, m := range []Measure{Cosine, Jaccard, BinaryCosine, Measure(9)} {
		if m.String() == "" {
			t.Errorf("empty String for %d", int(m))
		}
	}
}

func TestMeasureSimPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown measure did not panic")
		}
	}()
	Measure(9).Sim(vector.Vector{}, vector.Vector{})
}

func TestSearchFindsAllQualifyingPairs(t *testing.T) {
	c := &vector.Collection{Dim: 4, Vecs: []vector.Vector{
		v(vector.Entry{Ind: 0, Val: 1}),
		v(vector.Entry{Ind: 0, Val: 2}),
		v(vector.Entry{Ind: 1, Val: 1}),
		{}, // empty vectors are skipped
	}}
	rs := Search(c, Cosine, 0.9)
	if len(rs) != 1 || rs[0].Pair() != pair.Make(0, 1) {
		t.Errorf("Search = %v", rs)
	}
	if rs[0].Sim != 1 {
		t.Errorf("sim = %v", rs[0].Sim)
	}
}

func TestVerifyFilters(t *testing.T) {
	c := &vector.Collection{Dim: 4, Vecs: []vector.Vector{
		v(vector.Entry{Ind: 0, Val: 1}),
		v(vector.Entry{Ind: 0, Val: 2}),
		v(vector.Entry{Ind: 1, Val: 1}),
	}}
	cands := []pair.Pair{pair.Make(0, 1), pair.Make(0, 2)}
	rs := Verify(c, Cosine, 0.5, cands)
	if len(rs) != 1 || rs[0].Pair() != pair.Make(0, 1) {
		t.Errorf("Verify = %v", rs)
	}
}

// collect gathers a streaming scan's output through the slot sink,
// in batch order; a failed scan returns (nil, err).
func collect(run func(emit func(int, []pair.Result) error) error) ([]pair.Result, error) {
	var sink shard.Slots[pair.Result]
	if err := run(sink.Put); err != nil {
		return nil, err
	}
	return sink.Flat(), nil
}

// TestShardedScansMatchSequential: for every worker count, block size
// and kind of never-canceled context, SearchStream and VerifyStream
// collected in slot order return exactly what Search and Verify
// return, in the same order.
func TestShardedScansMatchSequential(t *testing.T) {
	c := testutil.SmallBinaryCorpus(t, 200, 4)
	const th = 0.3
	for _, m := range []Measure{Cosine, Jaccard, BinaryCosine} {
		want := Search(c, m, th)
		if len(want) == 0 {
			t.Fatalf("%v: oracle found nothing", m)
		}
		// Candidates: the true pairs diluted with their neighbors.
		var cands []pair.Pair
		for _, r := range want {
			cands = append(cands, r.Pair())
			if int(r.B)+1 < len(c.Vecs) {
				cands = append(cands, pair.Make(r.A, r.B+1))
			}
		}
		wantV := Verify(c, m, th, cands)
		for name, ctx := range testutil.Contexts(t) {
			for _, workers := range []int{1, 2, 4, 7} {
				got, err := collect(func(emit func(int, []pair.Result) error) error {
					return SearchStream(ctx, c, m, th, workers, emit)
				})
				if err != nil {
					t.Fatal(err)
				}
				testutil.RequireSameSequence(t, name+" search", got, want)

				for _, batch := range []int{1, 64, len(cands)} {
					got, err := collect(func(emit func(int, []pair.Result) error) error {
						return VerifyStream(ctx, c, m, th, cands, workers, batch, emit)
					})
					if err != nil {
						t.Fatal(err)
					}
					testutil.RequireSameSequence(t, name+" verify", got, wantV)
				}
			}
		}
	}
}

// TestScansPreCanceled: a dead context returns ctx.Err() and nothing
// else.
func TestScansPreCanceled(t *testing.T) {
	c := testutil.SmallBinaryCorpus(t, 200, 4)
	cands := []pair.Pair{pair.Make(0, 1), pair.Make(2, 3)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	emit := func(int, []pair.Result) error {
		t.Error("emit ran under a dead context")
		return nil
	}
	if err := SearchStream(ctx, c, Jaccard, 0.3, 4, emit); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchStream: err %v", err)
	}
	if err := VerifyStream(ctx, c, Jaccard, 0.3, cands, 4, 1, emit); !errors.Is(err, context.Canceled) {
		t.Errorf("VerifyStream: err %v", err)
	}
}

// TestScansCancelMidRun lets a deadline expire inside scans that take
// far longer than the deadline, and requires ctx.Err(), no collected
// output and every worker drained.
func TestScansCancelMidRun(t *testing.T) {
	c := testutil.SmallTextCorpus(t, 3000, 6) // 4.5M pairs: seconds of brute force
	cands := make([]pair.Pair, 0, 1<<21)
	for i := int32(0); len(cands) < cap(cands); i = (i + 1) % 2999 {
		cands = append(cands, pair.Make(i, i+1))
	}
	for name, run := range map[string]func(context.Context, func(int, []pair.Result) error) error{
		"search": func(ctx context.Context, emit func(int, []pair.Result) error) error {
			return SearchStream(ctx, c, Cosine, 0.5, 4, emit)
		},
		"verify": func(ctx context.Context, emit func(int, []pair.Result) error) error {
			return VerifyStream(ctx, c, Cosine, 0.5, cands, 4, 256, emit)
		},
	} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		out, err := collect(func(emit func(int, []pair.Result) error) error { return run(ctx, emit) })
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || out != nil {
			t.Errorf("%s: %d results, err %v", name, len(out), err)
		}
		testutil.RequireNoGoroutineLeak(t, base)
	}
}
