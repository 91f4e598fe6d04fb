package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {250000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule itself: at least ten samples lie beyond the percentile
		// (except for the median, the floor).
		if p := supportedTail(c.n); p > 50 && float64(c.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("supportedTail(%d) = %v leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {75, 8}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 99) != 0 || median(nil) != 0 {
		t.Error("empty samples must report 0")
	}
}

// The expected values are statistics.quantiles(xs, n=4) from Python.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 12},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if spread([]float64{7}) != 0 {
		t.Error("a single value has no spread")
	}
}

// A serving metric is the median over the phase's whole windows, so a
// burst that spoils one window must not move it, and what was sent
// after the last whole window is left out.
func TestWindowsAndMedianOverThem(t *testing.T) {
	start := time.Unix(1000, 0)
	var a, b loadStats
	add := func(st *loadStats, atMS int, lat time.Duration) {
		st.at = append(st.at, start.Add(time.Duration(atMS)*time.Millisecond))
		st.lat = append(st.lat, lat)
	}
	add(&a, 0, 2*time.Millisecond)
	add(&b, 999, 1*time.Millisecond)
	add(&a, 1000, 90*time.Millisecond) // the spoiled window
	add(&b, 1500, 80*time.Millisecond)
	add(&b, 1700, 70*time.Millisecond)
	add(&a, 2000, 3*time.Millisecond)
	add(&a, 2999, 4*time.Millisecond)
	add(&b, 3000, 500*time.Millisecond) // past the three whole windows of a 3.5 s phase
	ld := load{readers: []loadStats{a, b}, start: start, length: 3500 * time.Millisecond}
	ld.rss = []rssSample{{start, 10}, {start.Add(900 * time.Millisecond), 12}, {start.Add(1100 * time.Millisecond), 50},
		{start.Add(2500 * time.Millisecond), 11}, {start.Add(3200 * time.Millisecond), 99}}

	ws := ld.windows(time.Second)
	want := [][]float64{{1, 2}, {70, 80, 90}, {3, 4}}
	if len(ws) != len(want) {
		t.Fatalf("%d windows, want %d", len(ws), len(want))
	}
	for k := range want {
		if len(ws[k]) != len(want[k]) {
			t.Fatalf("window %d = %v, want %v", k, ws[k], want[k])
		}
		for i := range want[k] {
			if ws[k][i] != want[k][i] {
				t.Errorf("window %d = %v, want %v", k, ws[k], want[k])
			}
		}
	}
	if got := overWindows(ws, median); got != 3.5 {
		t.Errorf("median over windows of the window median = %v, want 3.5 (windows: 1.5, 80, 3.5)", got)
	}
	if got := overWindows(ws, func(w []float64) float64 { return float64(len(w)) }); got != 2 {
		t.Errorf("median over windows of the window count = %v, want 2", got)
	}
	if got := median(ld.rssPeaks(time.Second)); got != 12 {
		t.Errorf("median window peak = %v, want 12 (peaks: 12, 50, 11)", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "a", Name: "x", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "b", Name: "y", Start: 30, End: 60},   // overlaps span 2
		{ID: 4, Parent: 1, Layer: "c", Name: "z", Start: 90, End: 120},  // sticks out of the parent
		{ID: 5, Parent: 2, Layer: "d", Name: "w", Start: 10, End: 25},   // grandchild: only its parent loses it
		{ID: 6, Parent: 1, Layer: "e", Name: "open", Start: 5, End: -1}, // never closed: ignored
	}
	self := selfTimes(spans)
	want := []time.Duration{40, 15, 30, 30, 15, 0}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i+1, self[i], want[i])
		}
	}
}

func TestTracerNilAndDerived(t *testing.T) {
	var off *tracer
	off.end(off.begin(0, 1, "a", "b")) // must not panic
	off.derived(1, 1, "a", "b", time.Second)

	tr := newTracer()
	p := tr.begin(0, 1, "core", "verify")
	time.Sleep(2 * time.Millisecond)
	tr.end(p)
	tr.derived(p, 1, "sighash", "fill", time.Hour) // clipped to the parent
	per := selfByReq(tr.spans)[1]
	if per["core.verify"] != 0 {
		t.Errorf("parent fully covered by its derived child has self time %v", per["core.verify"])
	}
	if d := per["sighash.fill"]; d <= 0 || d > time.Second {
		t.Errorf("derived child self time %v", d)
	}
	for _, s := range tr.spans {
		if s.ID == 0 || s.Name == "" || s.Layer == "" || s.Req == 0 || s.End < s.Start {
			t.Errorf("incomplete span %+v", s)
		}
	}
}

func TestSeedFixesInputs(t *testing.T) {
	a, err := genServe(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genServe(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.corpusText, b.corpusText) {
		t.Error("same seed, different corpus")
	}
	if len(a.queries) != numMemberQ+numHeldOutQ || len(a.adds) != numAdds {
		t.Fatalf("%d queries, %d adds", len(a.queries), len(a.adds))
	}
	for i := range a.queries {
		if !bytes.Equal(a.queries[i].body, b.queries[i].body) {
			t.Fatalf("same seed, query %d differs", i)
		}
	}
	for i := range a.adds {
		if !bytes.Equal(a.adds[i].body, b.adds[i].body) {
			t.Fatalf("same seed, add %d differs", i)
		}
	}
	// Another seed gives another corpus (the small shape keeps this fast).
	small := shapeRCV1
	small.N = 200
	c1, _ := generate(small, 1)
	c2, _ := generate(small, 2)
	var t1, t2 bytes.Buffer
	c1.WriteTo(&t1)
	c2.WriteTo(&t2)
	if bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Error("seeds 1 and 2 give the same corpus")
	}
}

func TestQueryOrder(t *testing.T) {
	const n = 1000
	for _, zipf := range []bool{false, true} {
		a, b := newQueryOrder(3, 0, n, zipf), newQueryOrder(3, 0, n, zipf)
		other := newQueryOrder(3, 1, n, zipf)
		counts := make([]int, n)
		differs := false
		for i := 0; i < 20000; i++ {
			x := a.next()
			if x < 0 || x >= n {
				t.Fatalf("zipf=%v: index %d outside [0,%d)", zipf, x, n)
			}
			if y := b.next(); y != x {
				t.Fatalf("zipf=%v: same seed and client, different order at step %d", zipf, i)
			}
			if other.next() != x {
				differs = true
			}
			counts[x]++
		}
		if !differs {
			t.Errorf("zipf=%v: two clients send the same sequence", zipf)
		}
		if zipf && (counts[0] < 5*counts[100]+1 || counts[0] < 500) {
			t.Errorf("skewed order is not skewed: rank 0 drawn %d times, rank 100 %d times", counts[0], counts[100])
		}
		if zipf && counts[0] > 1500 {
			t.Errorf("the head is not flattened: rank 0 drawn %d times in 20000", counts[0])
		}
		if !zipf && counts[0] > 60 {
			t.Errorf("uniform order drew index 0 %d times in 20000", counts[0])
		}
	}
}

func TestWriteSchedule(t *testing.T) {
	const n0, adds = 50, 300
	ops := writeSchedule(9, n0, adds)
	again := writeSchedule(9, n0, adds)
	live := make(map[int]bool)
	for id := 0; id < n0; id++ {
		live[id] = true
	}
	nAdd, nDel := 0, 0
	for i, op := range ops {
		if op != again[i] {
			t.Fatalf("same seed, op %d differs", i)
		}
		if op.add >= 0 {
			if op.add != nAdd {
				t.Fatalf("op %d adds vector %d, want %d (ids must stay dense)", i, op.add, nAdd)
			}
			live[n0+op.add] = true
			nAdd++
			continue
		}
		if !live[op.del] {
			t.Fatalf("op %d deletes id %d, which is not live", i, op.del)
		}
		delete(live, op.del)
		nDel++
	}
	if nAdd != adds || nDel != (adds-1)/3 {
		t.Errorf("%d adds and %d deletes, want %d and %d (3:1)", nAdd, nDel, adds, (adds-1)/3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m} }
	noisy := []float64{50, 100, 150, 100, 60}
	for _, c := range []struct {
		d        metricDef
		old, new []float64
		want     string
	}{
		{lower, steady(100), steady(105), same},
		{lower, steady(100), steady(111), worse},
		{lower, steady(100), steady(89), better},
		{higher, steady(100), steady(111), better},
		{higher, steady(100), steady(89), worse},
		{higher, steady(100), steady(95), same},
		{lower, noisy, steady(200), unresolved},
		{lower, steady(100), noisy, unresolved},
		{lower, []float64{100}, []float64{120}, worse}, // single runs record no spread
	} {
		if got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("verdict(%s, median %v -> %v) = %s, want %s", c.d.Name, median(c.old), median(c.new), got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(p50 float64, failed int) *runFile {
		f := &runFile{}
		for pass := 1; pass <= 3; pass++ {
			f.Runs = append(f.Runs, runRecord{Workload: "serve_read", Pass: pass, Correct: true, Attempted: 1000, Failed: failed,
				Metrics: map[string]float64{"op_p50_ms": p50 + float64(pass)*0.001, "recall": 0.98}})
		}
		return f
	}
	var out bytes.Buffer
	if !compareFiles(&out, mk(1, 0), mk(1.05, 0)) {
		t.Errorf("a 5%% change within a 25%% bound was rejected:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "base: old median") || !strings.Contains(out.String(), "same") {
		t.Errorf("table lacks the ratio's base or the verdict:\n%s", out.String())
	}
	out.Reset()
	if compareFiles(&out, mk(1, 0), mk(1.3, 0)) || !strings.Contains(out.String(), worse) {
		t.Errorf("a 30%% slowdown passed:\n%s", out.String())
	}
	out.Reset()
	if compareFiles(&out, mk(1, 0), mk(1, 1)) || !strings.Contains(out.String(), "fail_frac") {
		t.Errorf("a higher failure share passed:\n%s", out.String())
	}
}

func TestParseMatches(t *testing.T) {
	ok := []byte("{\"id\":3,\"sim\":0.8125}\n{\"id\":9,\"sim\":1}\n{\"done\":true,\"matches\":2}\n")
	ms, err := parseMatches(ok)
	if err != nil || len(ms) != 2 || ms[0].ID != 3 || ms[0].Sim != 0.8125 || ms[1].ID != 9 {
		t.Errorf("parseMatches = %v, %v", ms, err)
	}
	if !complete(ok) {
		t.Error("complete stream not recognized")
	}
	cut := []byte("{\"id\":3,\"sim\":0.8125}\n")
	if _, err := parseMatches(cut); err == nil || complete(cut) {
		t.Error("a stream without done marker was accepted")
	}
	if _, err := parseMatches([]byte("{\"error\":\"deadline\",\"status\":504}\n")); err == nil {
		t.Error("an in-band error line was accepted")
	}
	if ms, err := parseMatches([]byte("{\"done\":true,\"matches\":0}\n")); err != nil || len(ms) != 0 {
		t.Errorf("empty result: %v, %v", ms, err)
	}
}

// BENCHMARK.json is what the acceptance driver reads; spec.go is what
// the program reports. They must declare the same things.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the bench directory:", err)
	}
	var doc struct {
		Command   []string      `json:"command"`
		Paths     []string      `json:"paths"`
		Workloads []workloadDef `json:"workloads"`
		EndToEnd  []metricDef   `json:"end_to_end"`
		PerLayer  []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "bash bench/run.sh" || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q (or their why differs)", i, doc.Workloads[i].Name, w.Name)
		}
	}
	same := func(kind string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Fatalf("%s: %d declared, %d in spec.go", kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, spec.go %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
}
