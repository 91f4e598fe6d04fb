// Package snapshot implements the low-level binary codec of index
// snapshots: a little-endian, length-prefixed format with tagged
// sections and a whole-file CRC-32C checksum, written by a streaming
// Writer and decoded by a bounds-checked in-memory Reader.
//
// The package owns only the encoding primitives (fixed-width integers,
// floats, length-prefixed slices, section frames); what a snapshot
// contains is decided by its users — each storage layer serializes its
// own state with a WriteSnapshot/ReadSnapshot pair built from these
// primitives, and the root bayeslsh package composes the sections and
// owns the magic, version and checksum policy. WriteFile is the one
// atomic write-temp, sync and rename step every snapshot and cluster
// manifest file goes through. No reflection and no
// gob: every byte is written and read by explicit code, so the format
// is stable across Go versions and releases, and decoding hostile
// input can fail but never panic or over-allocate (every length is
// validated against the bytes actually present before use).
package snapshot
