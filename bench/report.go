package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// runRecord is one workload run as stored in an -out file.
type runRecord struct {
	Workload  string             `json:"workload"`
	Pass      int                `json:"pass"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runFile is the content of an -out file: every run of one invocation.
type runFile struct {
	Seed    uint64      `json:"seed"`
	Seconds int         `json:"seconds"`
	Trace   bool        `json:"trace"`
	Runs    []runRecord `json:"runs"`
}

// values returns, per workload and metric, the values over the passes.
func (f *runFile) values() map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range f.Runs {
		m := out[r.Workload]
		if m == nil {
			m = make(map[string][]float64)
			out[r.Workload] = m
		}
		for name, v := range r.Metrics {
			m[name] = append(m[name], v)
		}
	}
	return out
}

// failFrac is the share of attempted operations that failed, per
// workload, over all passes; a run that was not correct counts as
// wholly failed.
func (f *runFile) failFrac() map[string]float64 {
	failed, attempted := make(map[string]int), make(map[string]int)
	for _, r := range f.Runs {
		attempted[r.Workload] += r.Attempted
		if r.Correct {
			failed[r.Workload] += r.Failed
		} else {
			failed[r.Workload] += r.Attempted
		}
	}
	out := make(map[string]float64)
	for w, n := range attempted {
		if n > 0 {
			out[w] = float64(failed[w]) / float64(n)
		}
	}
	return out
}

// allMain runs every workload, each in a child process of its own (so
// a batch workload's peak memory is its own), repeat times over, and
// prints every metric by name. With repeat > 1 it prints median,
// quartiles and spread per metric and fails if the spread of an
// end-to-end metric other than setup_s exceeds half its bound.
func allMain(ctx context.Context, seed uint64, seconds int, trace bool, apss string, repeat int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	file := runFile{Seed: seed, Seconds: seconds, Trace: trace}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	status := 0
	for pass := 1; pass <= repeat; pass++ {
		for _, w := range workloads {
			cmd := exec.CommandContext(ctx, self, "-workload", w.Name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", traceArg, "-apss", apss)
			// On Ctrl-C the child gets SIGTERM and stops its own server.
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
			cmd.WaitDelay = 30 * time.Second
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "bench: interrupted")
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (pass %d) printed no result: %v (%v)\n", w.Name, pass, err, runErr)
				status = 1
				continue
			}
			if repeat == 1 {
				os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
				fmt.Println()
			} else {
				fmt.Printf("# pass %d/%d %s: %d attempted, %d failed, correct=%v\n", pass, repeat, w.Name, res.Attempted, res.Failed, res.Correct)
			}
			if runErr != nil || !res.Correct || res.Failed > 0 {
				status = 1
			}
			rec := runRecord{Workload: w.Name, Pass: pass, Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]float64)}
			for name, m := range res.Metrics {
				rec.Metrics[name] = m.Value
			}
			file.Runs = append(file.Runs, rec)
		}
	}
	if repeat > 1 && !printSpreads(os.Stdout, &file) {
		status = 1
	}
	if out != "" {
		buf, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: write -out file:", err)
			return 1
		}
	}
	return status
}

// defsFor returns the metric declarations a file's runs report.
func defsFor(f *runFile) []metricDef {
	if f.Trace {
		return perLayer
	}
	return endToEnd
}

// printSpreads prints the repeat summary and reports whether every
// bounded metric's spread stays within half its bound.
func printSpreads(w io.Writer, f *runFile) bool {
	steady := true
	vals := f.values()
	fmt.Fprintf(w, "\n%-18s %-28s %3s %12s %12s %12s %8s %7s\n", "workload", "metric", "n", "median", "q1", "q3", "spread", "bound")
	for _, wl := range workloads {
		for _, d := range defsFor(f) {
			xs := vals[wl.Name][d.Name]
			if len(xs) < 2 {
				continue
			}
			q1, q3 := quartiles(xs)
			sp := spread(xs)
			mark := ""
			// Set-up time is exempt, as in the acceptance driver: it is a
			// median of three to five samples per run.
			if d.Bound > 0 && d.Name != "setup_s" && sp > d.Bound/2 {
				mark, steady = "  UNSTEADY: spread above half the bound", false
			}
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.1f%%", d.Bound*100)
			}
			fmt.Fprintf(w, "%-18s %-28s %3d %12.6g %12.6g %12.6g %7.2f%% %7s%s\n", wl.Name, d.Name, len(xs), median(xs), q1, q3, sp*100, bound, mark)
		}
	}
	return steady
}

// Verdicts of a comparison row.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict judges one end-to-end metric on one workload: the change of
// the median against the metric's bound, unless the run-to-run spread
// recorded on either side is itself wider than the bound, in which case
// the files cannot tell.
func verdict(d metricDef, old, new []float64) string {
	if spread(old) > d.Bound || spread(new) > d.Bound {
		return unresolved
	}
	mo, mn := median(old), median(new)
	if d.Better == "higher" {
		mo, mn = -mo, -mn
	}
	// Now lower is better on both signs.
	switch slack := d.Bound * math.Abs(mo); {
	case mn > mo+slack:
		return worse
	case mn < mo-slack:
		return better
	}
	return same
}

func loadRunFile(path string) (*runFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareMain prints one row per workload and end-to-end metric of two
// -out files and returns non-zero on any worse verdict or a higher
// failure share.
func compareMain(oldPath, newPath string, w io.Writer) int {
	oldF, err := loadRunFile(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	newF, err := loadRunFile(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if compareFiles(w, oldF, newF) {
		return 0
	}
	return 1
}

// compareFiles writes the comparison table and reports whether the new
// file is acceptable.
func compareFiles(w io.Writer, oldF, newF *runFile) bool {
	ok := true
	ov, nv := oldF.values(), newF.values()
	fmt.Fprintf(w, "%-18s %-12s %12s %12s %-28s %6s %7s %7s  %s\n", "workload", "metric", "old median", "new median", "new/old (base: old median)", "bound", "old sp.", "new sp.", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			o, n := ov[wl.Name][d.Name], nv[wl.Name][d.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v := verdict(d, o, n)
			if v == worse {
				ok = false
			}
			ratio := fmt.Sprintf("%.4f (of %.6g %s)", median(n)/median(o), median(o), d.Unit)
			fmt.Fprintf(w, "%-18s %-12s %12.6g %12.6g %-28s %5.1f%% %6.2f%% %6.2f%%  %s\n",
				wl.Name, d.Name, median(o), median(n), ratio, d.Bound*100, spread(o)*100, spread(n)*100, v)
		}
	}
	of, nf := oldF.failFrac(), newF.failFrac()
	for _, wl := range workloads {
		if nf[wl.Name] > of[wl.Name] {
			ok = false
			fmt.Fprintf(w, "%-18s fail_frac rose from %g to %g: worse\n", wl.Name, of[wl.Name], nf[wl.Name])
		}
	}
	return ok
}
