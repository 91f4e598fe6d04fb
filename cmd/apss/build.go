package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bayeslsh"
)

// buildMain implements the "apss build" subcommand: the offline half
// of the build-offline/serve-online split. It builds the query-serving
// index once — paying hashing, banding and (for the Jaccard Bayes
// pipelines) prior fitting — and saves a versioned snapshot that
// "apss query -index" and "apss serve -index" (any process calling
// bayeslsh.LoadFile or bayeslsh.OpenLiveFile) load without rebuilding:
// a v1 file decodes into the heap, a v3 file is served in place from a
// read-only mapping.
func buildMain(args []string) {
	fs := flag.NewFlagSet("apss build", flag.ExitOnError)
	datasetName := fs.String("dataset", "", "built-in synthetic dataset name")
	file := fs.String("file", "", "dataset file in the library's vector format")
	measureName := fs.String("measure", "cosine", "cosine | jaccard | binary-cosine")
	algName := fs.String("algorithm", "LSH+BayesLSH", "pipeline the index is built for")
	threshold := fs.Float64("t", 0.7, "similarity threshold the index is built at")
	seed := fs.Uint64("seed", 42, "random seed")
	parallel := fs.Int("parallel", 0, "build workers (0 = NumCPU, 1 = sequential)")
	out := fs.String("out", "", "snapshot output path (required)")
	format := fs.String("format", "v1", "snapshot format: v1 (heap-loaded stream) | v3 (mmap-servable, page-aligned)")
	fs.Parse(args)

	const prog = "apss build"
	measure, ok := measuresByName[*measureName]
	if !ok {
		usageError(prog, "unknown measure %q", *measureName)
	}
	alg, auto := algorithmFlag(prog, *algName)
	if *format != "v1" && *format != "v3" {
		usageError(prog, "unknown -format %q (want v1 or v3)", *format)
	}
	validateCommon(prog, *threshold, *parallel)
	if *out == "" {
		usageError(prog, "need -out (snapshot path to write)")
	}

	ds := loadDataset(*datasetName, *file, measure, prog)
	ix, err := bayeslsh.NewIndex(ds, measure, bayeslsh.EngineConfig{
		Seed:        *seed,
		Parallelism: *parallel,
	}, bayeslsh.Options{Algorithm: alg, AutoPipeline: auto, Threshold: *threshold})
	if err != nil {
		fmt.Fprintln(os.Stderr, prog+":", err)
		os.Exit(1)
	}
	save, version := ix.SaveFile, bayeslsh.SnapshotVersion
	if *format == "v3" {
		save, version = ix.SaveFileV3, bayeslsh.DiskSnapshotVersion
	}
	if err := save(*out); err != nil {
		fmt.Fprintln(os.Stderr, prog+":", err)
		os.Exit(1)
	}
	size := int64(-1)
	if fi, err := os.Stat(*out); err == nil {
		size = fi.Size()
	}
	st := ix.Stats()
	fmt.Fprintf(os.Stderr,
		"apss build: %v index over %d vectors (%v, t=%.2f) built in %v, snapshot %s (%d bytes, format v%d)\n",
		ix.Options().Algorithm, ix.Len(), measure, *threshold, st.BuildTime.Round(time.Millisecond),
		*out, size, version)
}
