package main

import (
	"flag"
	"fmt"

	"bayeslsh"
)

// infoMain implements the "apss info" subcommand: a forensic view of
// a snapshot file — version, section table, corpus shape — produced
// by bayeslsh.InspectFile without building a servable index, so it
// works on files whose decoded structures would be too large (or too
// suspect) to load. Integrity is still verified: the whole-file
// checksum for v1/v2 streams, the header and every section checksum
// for v3 containers. Any failure — missing file, foreign bytes,
// flipped bits, unknown version — exits with status 2 and a one-line
// diagnosis, the same contract as flag-validation errors.
func infoMain(args []string) {
	fs := flag.NewFlagSet("apss info", flag.ExitOnError)
	fs.Parse(args)

	const prog = "apss info"
	if fs.NArg() != 1 {
		usageError(prog, "need exactly one snapshot path (got %d args)", fs.NArg())
	}
	path := fs.Arg(0)
	info, err := bayeslsh.InspectFile(path)
	if err != nil {
		usageError(prog, "%s: %v", path, err)
	}

	fmt.Printf("%s: format v%d, %d bytes\n", path, info.Version, info.Size)
	fmt.Printf("  %v index, %v measure, t=%.2f\n", info.Algorithm, info.Measure, info.Threshold)
	fmt.Printf("  corpus: %d vectors, dim %d\n", info.Vectors, info.Dim)
	if l := info.Live; l != nil {
		fmt.Printf("  live: %d vectors (base %d + delta %d, %d tombstones)\n", l.Vectors, info.Vectors, l.Delta, l.Tombstones)
	}
	if st := info.Stats; !st.Zero() {
		fmt.Printf("  stats: avg len %.1f, median %d, p90 %d, max %d, cv %.2f\n",
			st.AvgLen, st.MedianLen, st.P90Len, st.MaxLen, st.LenCV)
		fmt.Printf("         density %.4g, top-df %.2f, heavy %.2f\n",
			st.Density, st.TopDFFrac, st.HeavyFrac)
		plan := bayeslsh.ChoosePlan(st, bayeslsh.PlanQuery{
			Measure: info.Measure, Threshold: info.Threshold, Serving: true,
		})
		fmt.Printf("  planner would pick: %v (apss plan -why explains)\n", plan.Pipeline)
	}
	fmt.Printf("  sections (%d):\n", len(info.Sections))
	fmt.Printf("    %-4s %-15s %10s %12s %s\n", "tag", "name", "offset", "length", "crc32c")
	for _, s := range info.Sections {
		crc := "-" // v1/v2 carry one whole-file checksum, not per-section
		if info.Version == bayeslsh.DiskSnapshotVersion {
			crc = fmt.Sprintf("%08x", s.CRC)
		}
		fmt.Printf("    %-4d %-15s %10d %12d %s\n", s.Tag, s.Name, s.Off, s.Len, crc)
	}
}
