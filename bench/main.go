// Command bench is the repository's one benchmark: six named
// workloads, seven end-to-end metrics every workload reports, and a
// traced run that attributes each workload's time to the library's
// layers. BENCHMARK.json at the repository root declares it; README.md
// in this directory explains the workloads, the metrics and how to
// read the output.
//
// Run it through the wrapper, from the repository root:
//
//	bash bench/run.sh --workload batch_cosine_lsh --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                       # every workload, a table of every metric
//	bash bench/run.sh -repeat 5 -out a.json # five passes, medians and spreads
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// measured is one reported metric value with its unit.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints as the last
// line of its standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`

	// notes are per-metric remarks for the human-readable table only
	// (sample counts, which percentile the tail is).
	notes    map[string]string
	problems []string // failed correctness checks, for the log
}

func newResult(defs []metricDef) *result {
	r := &result{Correct: true, Metrics: make(map[string]measured, len(defs)), notes: make(map[string]string)}
	for _, d := range defs {
		r.Metrics[d.Name] = measured{Unit: d.Unit}
	}
	return r
}

// set records a metric the spec declares; an undeclared name is a bug
// in the benchmark.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in spec.go")
	}
	m.Value = v
	r.Metrics[name] = m
}

func (r *result) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

// tally adds what client connections measured to the operation counts.
func (r *result) tally(conns ...loadStats) {
	for _, st := range conns {
		r.Attempted += len(st.lat)
		r.Failed += st.failed
		if st.firstErr != "" {
			r.fail("%d failed operations on one connection, first: %s", st.failed, st.firstErr)
		}
	}
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runCtx is what a workload run is given.
type runCtx struct {
	ctx      context.Context
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	apss     string // program under test, built by run.sh
	workDir  string // scratch directory inside the checkout, removed on exit
	traceDir string
	log      io.Writer
}

func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.log, "bench: "+format+"\n", args...)
}

// saveTrace writes the traced run's spans to the trace directory.
func (rc *runCtx) saveTrace(tr *tracer) error {
	path, err := tr.write(rc.traceDir, rc.workload)
	if err != nil {
		return err
	}
	rc.logf("%d spans written to %s", len(tr.spans), path)
	return nil
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 10, "seconds one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
	apss := fs.String("apss", "", "path of the apss binary under test (bench/run.sh builds and passes it)")
	repeat := fs.Int("repeat", 1, "with -workload all: passes to run; prints median, quartiles and spread per metric")
	out := fs.String("out", "", "with -workload all: write every run's numbers to this JSON file (input of -compare)")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files: old.json new.json")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if *seconds < 1 || *repeat < 1 || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be positive and there are no positional arguments")
		return 2
	}
	if *apss == "" {
		fmt.Fprintln(os.Stderr, "bench: need -apss (run through bench/run.sh, which builds it)")
		return 2
	}

	// SIGINT/SIGTERM cancel the context; every phase watches it and the
	// deferred clean-up (server children, scratch files) still runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workload == "all" {
		return allMain(ctx, *seed, *seconds, *trace != 0, *apss, *repeat, *out)
	}
	w, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	return runOne(ctx, w, *seed, *seconds, *trace != 0, *apss)
}

// runOne runs a single workload in this process and prints the
// human-readable metric lines followed by the result object.
func runOne(ctx context.Context, w workloadDef, seed uint64, seconds int, trace bool, apss string) int {
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	scratch := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	workDir, err := os.MkdirTemp(scratch, w.Name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	rc := &runCtx{
		ctx: ctx, workload: w.Name, seed: seed, seconds: time.Duration(seconds) * time.Second,
		trace: trace, apss: apss, workDir: workDir,
		traceDir: filepath.Join(root, "bench", "out"), log: os.Stderr,
	}
	res, err := w.run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	printMetrics(os.Stdout, w.Name, defs, res)
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s\n", w.Name, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// printMetrics writes one line per metric: name, value, unit, bound
// and the sample note.
func printMetrics(w io.Writer, workload string, defs []metricDef, res *result) {
	fmt.Fprintf(w, "# %s: %d attempted, %d failed, correct=%v\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("bound %g%%", d.Bound*100)
		}
		fmt.Fprintf(w, "%-18s %-28s %14.6g %-9s %-11s %s\n", workload, d.Name, res.Metrics[d.Name].Value, d.Unit, bound, res.notes[d.Name])
	}
}

// procStatusMB reads one of the kB lines of /proc/<pid>/status (VmHWM,
// the peak resident set; VmRSS, the current one) in megabytes; pid 0
// means this process.
func procStatusMB(pid int, key string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("read %s: %w", path, err)
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s in %s: %w", key, path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// procCPU returns the user+system CPU time a process has used, in
// clock ticks (only ratios of it are reported); pid 0 is this process.
func procCPU(pid int) (float64, error) {
	path := "/proc/self/stat"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/stat"
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("read %s: %w", path, err)
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	s := string(buf)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("%s: unexpected format", path)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse %s: %w", path, err)
	}
	return ut + st, nil
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts a latency sample to sorted milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}
