package core

import (
	"testing"

	"bayeslsh/internal/pair"
	"bayeslsh/internal/stats"
)

func TestParamsDefaults(t *testing.T) {
	p, err := Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05}.withDefaults(2048)
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 32 || p.MaxHashes != 2048 {
		t.Errorf("defaults: %+v", p)
	}
}

func TestParamsRoundsMaxHashesDown(t *testing.T) {
	p, err := Params{Threshold: 0.7, Epsilon: 0.03, K: 32, MaxHashes: 100}.withDefaults(2048)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxHashes != 96 {
		t.Errorf("MaxHashes = %d, want 96", p.MaxHashes)
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{Threshold: 0, Epsilon: 0.03},
		{Threshold: 1.5, Epsilon: 0.03},
		{Threshold: 0.5, Epsilon: 0},
		{Threshold: 0.5, Epsilon: 1},
		{Threshold: 0.5, Epsilon: 0.03, Delta: -0.1},
		{Threshold: 0.5, Epsilon: 0.03, Gamma: 1},
		{Threshold: 0.5, Epsilon: 0.03, K: -1},
		{Threshold: 0.5, Epsilon: 0.03, MaxHashes: 4096},
		{Threshold: 0.5, Epsilon: 0.03, K: 64, MaxHashes: 32},
	}
	for i, p := range bad {
		if _, err := p.withDefaults(2048); err == nil {
			t.Errorf("case %d: params %+v accepted", i, p)
		}
	}
}

func TestRounds(t *testing.T) {
	p := Params{K: 32, MaxHashes: 128}
	ns := rounds(p)
	want := []int{32, 64, 96, 128}
	if len(ns) != len(want) {
		t.Fatalf("rounds = %v", ns)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("rounds = %v, want %v", ns, want)
		}
	}
}

func TestMinMatchesTableAgainstLinearScan(t *testing.T) {
	// The binary search must agree with a linear scan for a real
	// survival predicate.
	prior := stats.Beta{Alpha: 1, Beta: 1}
	threshold, eps := 0.7, 0.03
	survive := func(m, n int) bool {
		post := stats.Beta{Alpha: float64(m) + prior.Alpha, Beta: float64(n-m) + prior.Beta}
		return post.SF(threshold) >= eps
	}
	ns := []int{32, 64, 96, 128}
	table := minMatchesTable(ns, survive)
	for i, n := range ns {
		linear := n + 1
		for m := 0; m <= n; m++ {
			if survive(m, n) {
				linear = m
				break
			}
		}
		if table[i] != linear {
			t.Errorf("n=%d: binary %d, linear %d", n, table[i], linear)
		}
	}
}

func TestMinMatchesTableAllFail(t *testing.T) {
	table := minMatchesTable([]int{8}, func(m, n int) bool { return false })
	if table[0] != 9 {
		t.Errorf("all-fail sentinel = %d, want n+1", table[0])
	}
	table = minMatchesTable([]int{8}, func(m, n int) bool { return true })
	if table[0] != 0 {
		t.Errorf("all-pass = %d, want 0", table[0])
	}
}

func TestLiteRounds(t *testing.T) {
	if got := liteRounds(128, 32, 10); got != 4 {
		t.Errorf("liteRounds(128,32) = %d", got)
	}
	if got := liteRounds(100, 32, 10); got != 4 {
		t.Errorf("liteRounds rounds up: %d", got)
	}
	if got := liteRounds(0, 32, 10); got != 10 {
		t.Errorf("liteRounds(0) = %d, want all rounds", got)
	}
	if got := liteRounds(9999, 32, 10); got != 10 {
		t.Errorf("liteRounds clamps: %d", got)
	}
}

func TestVerifierConstructorsReject(t *testing.T) {
	okParams := Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05}
	if _, err := NewJaccard(nil, stats.Beta{Alpha: 1, Beta: 1}, okParams); err == nil {
		t.Error("NewJaccard accepted empty signatures")
	}
	if _, err := NewJaccard([][]uint32{make([]uint32, 64)}, stats.Beta{}, okParams); err == nil {
		t.Error("NewJaccard accepted invalid prior")
	}
	short := [][]uint32{make([]uint32, 64), make([]uint32, 16)}
	if _, err := NewJaccard(short, stats.Beta{Alpha: 1, Beta: 1}, okParams); err == nil {
		t.Error("NewJaccard accepted a short signature")
	}
	if _, err := NewCosine(nil, 256, okParams); err == nil {
		t.Error("NewCosine accepted empty signatures")
	}
	if _, err := NewCosine([][]uint64{make([]uint64, 1)}, 256, okParams); err == nil {
		t.Error("NewCosine accepted a short signature")
	}
}

func TestVerifyEmptyCandidates(t *testing.T) {
	sigs := [][]uint32{make([]uint32, 64), make([]uint32, 64)}
	v, err := NewJaccard(sigs, stats.Beta{Alpha: 1, Beta: 1},
		Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	out, st := verifySeq(t, v, nil)
	if len(out) != 0 || st.Candidates != 0 || st.Pruned != 0 {
		t.Errorf("empty verify: %v %+v", out, st)
	}
}

func TestIdenticalSignaturesAcceptedWithHighEstimate(t *testing.T) {
	sig := make([]uint32, 128)
	for i := range sig {
		sig[i] = uint32(i * 7)
	}
	sigs := [][]uint32{sig, sig}
	v, err := NewJaccard(sigs, stats.Beta{Alpha: 1, Beta: 1},
		Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	out, st := verifySeq(t, v, []pair.Pair{pair.Make(0, 1)})
	if len(out) != 1 {
		t.Fatalf("identical pair pruned: %+v", st)
	}
	if out[0].Sim < 0.9 {
		t.Errorf("estimate for identical signatures = %v", out[0].Sim)
	}
}

func TestDisjointSignaturesPrunedEarly(t *testing.T) {
	a := make([]uint32, 128)
	b := make([]uint32, 128)
	for i := range a {
		a[i] = uint32(2 * i)
		b[i] = uint32(2*i + 1)
	}
	v, err := NewJaccard([][]uint32{a, b}, stats.Beta{Alpha: 1, Beta: 1},
		Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	out, st := verifySeq(t, v, []pair.Pair{pair.Make(0, 1)})
	if len(out) != 0 || st.Pruned != 1 {
		t.Errorf("disjoint pair not pruned: %v %+v", out, st)
	}
	if st.HashesCompared != 32 {
		t.Errorf("pruning took %d hashes, expected one round of 32", st.HashesCompared)
	}
}

func TestSurvivorsByRoundNonIncreasing(t *testing.T) {
	// Survivor counts are cumulative per pair and monotone by
	// construction; verify on a mixed batch.
	sigs := make([][]uint32, 0, 20)
	base := make([]uint32, 128)
	for i := range base {
		base[i] = uint32(i)
	}
	sigs = append(sigs, base)
	for j := 1; j < 20; j++ {
		s := make([]uint32, 128)
		copy(s, base)
		// Corrupt j*6 positions: decreasing similarity with base.
		for i := 0; i < j*6 && i < 128; i++ {
			s[i] = uint32(1000 + 128*j + i)
		}
		sigs = append(sigs, s)
	}
	v, err := NewJaccard(sigs, stats.Beta{Alpha: 1, Beta: 1},
		Params{Threshold: 0.6, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var cands []pair.Pair
	for j := 1; j < 20; j++ {
		cands = append(cands, pair.Make(0, int32(j)))
	}
	_, st := verifySeq(t, v, cands)
	for r := 1; r < len(st.SurvivorsByRound); r++ {
		if st.SurvivorsByRound[r] > st.SurvivorsByRound[r-1] {
			t.Errorf("survivors increased at round %d: %v", r, st.SurvivorsByRound)
		}
	}
	if st.Pruned+st.Accepted != st.Candidates {
		t.Errorf("accounting broken: %+v", st)
	}
}

func TestCacheReducesInference(t *testing.T) {
	// The first verification through a new key builds the accept
	// table and is charged its posterior evaluations; verifying the
	// same batch again decides every concentration test by the table,
	// without inference and without changing the output.
	forgetTables()
	sig := make([]uint32, 128)
	for i := range sig {
		sig[i] = uint32(i)
	}
	near := make([]uint32, 128)
	copy(near, sig)
	for i := 0; i < 12; i++ {
		near[i*10] = 9999 + uint32(i)
	}
	v, err := NewJaccard([][]uint32{sig, near}, stats.Beta{Alpha: 1, Beta: 1},
		Params{Threshold: 0.6, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cands := []pair.Pair{pair.Make(0, 1)}
	out1, st1 := verifySeq(t, v, cands)
	out2, st2 := verifySeq(t, v, cands)
	if st1.InferenceCalls == 0 {
		t.Error("first run performed no inference")
	}
	if st2.InferenceCalls != 0 || st2.CacheHits == 0 || st2.CacheHits != st1.CacheHits {
		t.Errorf("second run did not decide by the table: %+v, first %+v", st2, st1)
	}
	if len(out1) != len(out2) || (len(out1) > 0 && out1[0] != out2[0]) {
		t.Errorf("cache changed results: %v vs %v", out1, out2)
	}
}
