package bayeslsh

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// Digests of an AllPairsBayesLSHLite Jaccard index's version-1 stream
// and version-3 file, recorded before the AllPairs postings gained
// their in-memory processing positions and prefix size keys. Those are
// derived at load and never written, so both byte streams must stay
// exactly as they were.
const (
	apLiteV1Digest = "cc35b6047db91afb716e4bb12d5c7280"
	apLiteV3Digest = "3076b2d052c2e24af0ead0b5d796843b"
)

// Digests of a cosine LSHBayesLSH index's version-1 stream and
// version-3 file, recorded before the quantized hashing accumulate
// moved to the dequantize table and the 4-feature register block. Both
// persist filled signature prefixes, so both pin the hashing kernel's
// bits as well as the format.
const (
	cosLSHV1Digest = "a97b8b9ae8999b2b87a0d22af37879b7"
	cosLSHV3Digest = "dc4d6117ab39a6ab09033651dc26ad4a"
)

// Digests of a Jaccard LSHBayesLSH index (minhash band tables) and a
// cosine LSHBayesLSH index with multi-probe (band section flags bit 0),
// recorded while band tables were still per-band Go maps, so the run
// layout that replaced them must encode both exactly as the maps did.
const (
	jacLSHV1Digest   = "ee1fa3c0b298feffbfb0f74330ff0a47"
	jacLSHV3Digest   = "40aa464833c4c6bc5a03c9e5415b857c"
	cosMPLSHV1Digest = "12925738f9821e388441f2a34963cb78"
	cosMPLSHV3Digest = "ecb9d467def8a156d954ed812ee40f51"
)

func TestAllPairsSnapshotBytesPinned(t *testing.T) {
	checkSnapshotDigests(t, smallDataset(t, 300).Binarize(), Jaccard, EngineConfig{Seed: 8},
		Options{Algorithm: AllPairsBayesLSHLite, Threshold: 0.4}, apLiteV1Digest, apLiteV3Digest)
}

func TestCosineLSHSnapshotBytesPinned(t *testing.T) {
	checkSnapshotDigests(t, smallDataset(t, 300), Cosine, EngineConfig{Seed: 8},
		Options{Algorithm: LSHBayesLSH, Threshold: 0.7}, cosLSHV1Digest, cosLSHV3Digest)
}

func TestJaccardLSHSnapshotBytesPinned(t *testing.T) {
	checkSnapshotDigests(t, smallDataset(t, 300).Binarize(), Jaccard, EngineConfig{Seed: 8},
		Options{Algorithm: LSHBayesLSH, Threshold: 0.5}, jacLSHV1Digest, jacLSHV3Digest)
}

func TestCosineMultiProbeSnapshotBytesPinned(t *testing.T) {
	checkSnapshotDigests(t, smallDataset(t, 300), Cosine, EngineConfig{Seed: 8},
		Options{Algorithm: LSHBayesLSH, Threshold: 0.7, MultiProbe: true}, cosMPLSHV1Digest, cosMPLSHV3Digest)
}

// checkSnapshotDigests builds an index and compares the md5 of its
// WriteTo stream and its SaveFileV3 file with the pinned digests.
func checkSnapshotDigests(t *testing.T, ds *Dataset, m Measure, cfg EngineConfig, opts Options, v1Want, v3Want string) {
	t.Helper()
	ix, err := NewIndex(ds, m, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	ix.stats.BuildTime = 0 // the one wall-clock field of the format
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ap.v3.snap")
	if err := ix.SaveFileV3(path); err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		bytes      []byte
	}{{"v1 WriteTo", v1Want, buf.Bytes()}, {"v3 SaveFileV3", v3Want, v3}} {
		sum := md5.Sum(c.bytes)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: %d bytes md5 %s, pinned %s", c.name, len(c.bytes), got, c.want)
		}
	}
}
