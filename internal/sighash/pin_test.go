package sighash

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// signaturePin is the digest of every signature of a fixed corpus
// filled to MaxBits, recorded before the accumulate moved to the
// dequantize table and the 4-feature register block. Any change to the
// hashing kernel must keep every sum, and with it every bit, exactly
// as it was.
const signaturePin = "5c6583733fbb8d65f2f837cf09099278"

func TestSignatureBitsPinned(t *testing.T) {
	c := storeCorpus(300, 2000, 41)
	fam := NewBlockFamily(c.Dim, 2048, 128, 29)
	s := NewStore(c, fam)
	ensureAll(t, s, fam.MaxBits())
	h := md5.New()
	for _, sig := range s.Sigs() {
		for _, w := range sig {
			h.Write(binary.LittleEndian.AppendUint64(nil, w))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != signaturePin {
		t.Errorf("signatures md5 %s, pinned %s", got, signaturePin)
	}
}
