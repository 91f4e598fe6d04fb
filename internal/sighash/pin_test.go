package sighash

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// Digests of every signature of a fixed corpus filled to MaxBits, per
// projection layout, recorded before the quantized accumulate moved to
// the dequantize table and the 4-feature register block. Any change to
// the hashing kernel must keep every sum, and with it every bit,
// exactly as it was.
var signaturePins = []struct {
	name string
	opts []Option
	want string
}{
	{"quantized", nil, "5c6583733fbb8d65f2f837cf09099278"},
	{"exact", []Option{Exact()}, "06577d439d050cc42e58b66a4764225a"},
}

func TestSignatureBitsPinned(t *testing.T) {
	c := storeCorpus(300, 2000, 41)
	for _, p := range signaturePins {
		fam := NewBlockFamily(c.Dim, 2048, 128, 29, p.opts...)
		s := NewStore(c, fam)
		ensureAll(t, s, fam.MaxBits())
		h := md5.New()
		for _, sig := range s.Sigs() {
			for _, w := range sig {
				h.Write(binary.LittleEndian.AppendUint64(nil, w))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != p.want {
			t.Errorf("%s: signatures md5 %s, pinned %s", p.name, got, p.want)
		}
	}
}
