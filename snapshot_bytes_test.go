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

func TestAllPairsSnapshotBytesPinned(t *testing.T) {
	ix, err := NewIndex(smallDataset(t, 300).Binarize(), Jaccard, EngineConfig{Seed: 8},
		Options{Algorithm: AllPairsBayesLSHLite, Threshold: 0.4})
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
	}{{"v1 WriteTo", apLiteV1Digest, buf.Bytes()}, {"v3 SaveFileV3", apLiteV3Digest, v3}} {
		sum := md5.Sum(c.bytes)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: %d bytes md5 %s, pinned %s", c.name, len(c.bytes), got, c.want)
		}
	}
}
