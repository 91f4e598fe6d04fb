// Command apsslint runs the project's contract analyzers
// (internal/analysis/...: mapiter, detrand, ctxflow, errwrap,
// gohygiene, narrowing — see docs/ANALYSIS.md) over Go packages.
//
// It runs in two modes:
//
//	apsslint [-tests=false] [packages...]
//
// loads the named package patterns (default ./...) from the
// enclosing module and analyzes them, test files included by
// default. And as a go vet tool:
//
//	go vet -vettool=$(which apsslint) ./...
//
// where the go command invokes apsslint once per package with a
// vet.cfg file; apsslint implements the vet tool protocol (-V=full,
// -flags, JSON config) with the standard library alone, so it works
// in offline builds where golang.org/x/tools is unavailable.
//
// Exit status: 0 clean, 1 operational error, 2 findings. A
// per-analyzer finding count summary is printed so CI logs show
// which contract broke at a glance.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bayeslsh/internal/analysis"
	"bayeslsh/internal/analysis/suite"
)

var (
	listFlag  = flag.Bool("list", false, "print the analyzers and their one-line contracts, then exit")
	testsFlag = flag.Bool("tests", true, "include _test.go files and _test packages (standalone mode)")
	vFlag     = flag.String("V", "", "print version and exit (vet tool protocol)")
	flagsFlag = flag.Bool("flags", false, "print flag descriptions as JSON, then exit (vet tool protocol)")
)

func main() {
	flag.Parse()
	switch {
	case *vFlag != "":
		// The go command fingerprints the tool binary for its vet
		// cache and requires "<tool> version <v>" here; hash the
		// executable into the line so a rebuilt apsslint always
		// invalidates stale cached results.
		fmt.Printf("apsslint version 1 sum=%s\n", executableSum())
		return
	case *flagsFlag:
		printFlags()
		return
	case *listFlag:
		for _, a := range suite.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Summary())
		}
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetUnit(args[0]))
	}
	os.Exit(runStandalone(args))
}

func executableSum() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// printFlags implements the `-flags` half of the vet tool protocol:
// the go command asks the tool for its flags as JSON so it can accept
// them on the `go vet` command line.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var out []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		b, isBool := f.Value.(interface{ IsBoolFlag() bool })
		out = append(out, jsonFlag{Name: f.Name, Bool: isBool && b.IsBoolFlag(), Usage: f.Usage})
	})
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apsslint:", err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// counts tallies findings per analyzer and renders the summary line.
type counts map[string]int

func (c counts) total() int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

func (c counts) summary() string {
	names := make([]string, 0, len(c))
	for name := range c {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%d", name, c[name])
	}
	return fmt.Sprintf("apsslint: %d finding(s): %s", c.total(), strings.Join(parts, " "))
}

func report(w io.Writer, fset *token.FileSet, diags []analysis.Diagnostic, c counts) {
	wd, _ := os.Getwd()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		name := pos.Filename
		if wd != "" {
			if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
		}
		fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n", name, pos.Line, pos.Column, d.Analyzer, d.Message)
		c[d.Analyzer]++
	}
}

// runStandalone loads the patterns from the enclosing module and
// analyzes them. Findings go to stdout; the summary to stderr.
func runStandalone(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "apsslint:", err)
		return 1
	}
	units, err := analysis.Load(root, patterns, *testsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apsslint:", err)
		return 1
	}
	analyzers := suite.Analyzers()
	c := make(counts)
	for _, u := range units {
		diags, err := analysis.Run(u, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apsslint:", err)
			return 1
		}
		report(os.Stdout, u.Fset, diags, c)
	}
	if c.total() > 0 {
		fmt.Fprintln(os.Stderr, c.summary())
		return 2
	}
	return 0
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s (run inside the module)", dir)
		}
		dir = parent
	}
}

// vetConfig mirrors the subset of cmd/go's vet config the tool needs.
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetUnit analyzes one package unit described by a vet.cfg file,
// the per-package protocol the go command speaks to -vettool tools.
// Dependencies are imported from the compiler export data the go
// command already built, so no re-type-checking of the world happens.
func runVetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apsslint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "apsslint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The suite computes no cross-package facts, but the go command
	// expects the output file of a vet run to exist for caching.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, []byte("apsslint: no facts\n"), 0o666); err != nil {
				fmt.Fprintln(os.Stderr, "apsslint:", err)
			}
		}
	}
	if cfg.VetxOnly {
		writeVetx()
		return 0
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	unit, err := analysis.Typecheck(fset, importer.ForCompiler(fset, "gc", lookup), cfg.ImportPath, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		fmt.Fprintln(os.Stderr, "apsslint:", err)
		return 1
	}
	diags, err := analysis.Run(unit, suite.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "apsslint:", err)
		return 1
	}
	writeVetx()
	if len(diags) > 0 {
		c := make(counts)
		report(os.Stderr, fset, diags, c)
		fmt.Fprintln(os.Stderr, c.summary())
		return 2
	}
	return 0
}
