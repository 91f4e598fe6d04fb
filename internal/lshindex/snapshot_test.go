package lshindex

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bayeslsh/internal/snapshot"
)

// encoded renders one writer callback's bytes.
func encoded(t *testing.T, write func(w *snapshot.Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	write(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func streamBits(t *testing.T, tables *BitsTables, n int) *BitsTables {
	t.Helper()
	got, err := ReadBitsTablesSnapshot(snapshot.NewReader(encoded(t, tables.WriteSnapshot)), n)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func streamMinhash(t *testing.T, tables *MinhashTables, n int) *MinhashTables {
	t.Helper()
	got, err := ReadMinhashTablesSnapshot(snapshot.NewReader(encoded(t, tables.WriteSnapshot)), n)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestStreamDecodesToTheBuiltRuns checks that tables decoded from the
// stream codec hold exactly the runs the build made: the same v3
// section bytes and the same stream bytes when written again.
func TestStreamDecodesToTheBuiltRuns(t *testing.T) {
	const n = 600
	for _, mp := range []bool{false, true} {
		bits, err := BuildBits(randomBitSigs(n, 96, 5), 4, 6, 3, mp)
		if err != nil {
			t.Fatal(err)
		}
		got := streamBits(t, bits, n)
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encoded(t, got.WriteFixedSection), encoded(t, bits.WriteFixedSection)) {
			t.Errorf("mp=%v: decoded bit tables lay out other runs than the build", mp)
		}
		if !bytes.Equal(encoded(t, got.WriteSnapshot), encoded(t, bits.WriteSnapshot)) {
			t.Errorf("mp=%v: bit tables re-stream to other bytes", mp)
		}
	}
	mins, err := BuildMinhash(randomMinSigs(n, 12, 6), 2, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := streamMinhash(t, mins, n)
	if !bytes.Equal(encoded(t, got.WriteFixedSection), encoded(t, mins.WriteFixedSection)) {
		t.Error("decoded minhash tables lay out other runs than the build")
	}
	if !bytes.Equal(encoded(t, got.WriteSnapshot), encoded(t, mins.WriteSnapshot)) {
		t.Error("minhash tables re-stream to other bytes")
	}
}

// streamBucket is one bucket of a hand-written band stream.
type streamBucket struct {
	key uint64
	ids []int32
}

// bandStream writes a one-band table stream (k = 4) holding buckets in
// the given order; bits selects the bit-table header (with its
// multi-probe flag) over the minhash one.
func bandStream(t *testing.T, bits bool, buckets ...streamBucket) []byte {
	return encoded(t, func(w *snapshot.Writer) {
		w.U32(4)
		w.U32(1)
		if bits {
			w.Bool(false)
		}
		w.U64(uint64(len(buckets)))
		for _, b := range buckets {
			w.U64(b.key)
			w.I32s(b.ids)
		}
	})
}

// TestStreamRejectsWhatARunCannotHold feeds the stream decoders
// buckets no writer emits. Each must fail as corrupt input, never
// panic, and never yield tables that probe outside the corpus.
func TestStreamRejectsWhatARunCannotHold(t *testing.T) {
	const n = 8
	for _, c := range []struct {
		name    string
		buckets []streamBucket
	}{
		{"ids out of order", []streamBucket{{1, []int32{3, 2}}}},
		{"repeated id", []streamBucket{{1, []int32{2, 2}}}},
		{"empty bucket", []streamBucket{{1, []int32{0}}, {2, nil}}},
		{"id at n", []streamBucket{{1, []int32{0, n}}}},
		{"negative id", []streamBucket{{1, []int32{-1, 0}}}},
		{"duplicate key", []streamBucket{{1, []int32{0}}, {1, []int32{1}}}},
		{"keys out of order", []streamBucket{{2, []int32{0}}, {1, []int32{1}}}},
	} {
		for _, bits := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/bits=%v", c.name, bits), func(t *testing.T) {
				r := snapshot.NewReader(bandStream(t, bits, c.buckets...))
				var err error
				if bits {
					_, err = ReadBitsTablesSnapshot(r, n)
				} else {
					_, err = ReadMinhashTablesSnapshot(r, n)
				}
				if !errors.Is(err, snapshot.ErrCorrupt) {
					t.Fatalf("got %v, want ErrCorrupt", err)
				}
			})
		}
	}
}

// TestProbeOfCorruptRunPanics pins what a probe does with a run that
// Validate would have rejected — as when a mapping changes underneath
// a validated view: it panics rather than adding an id outside the
// corpus or reading past the run.
func TestProbeOfCorruptRunPanics(t *testing.T) {
	const n = 10
	for name, blob := range map[string][]byte{
		"id at n":         snapshot.AppendDeltaI32s(nil, []int32{0, n}),
		"truncated delta": append(snapshot.AppendDeltaI32s(nil, []int32{3}), 0x80),
	} {
		tables := &BitsTables{runTables: runTables{k: 4, l: 1, n: n, bands: []bandRun{
			{keys: []uint64{5}, ends: []uint64{uint64(len(blob))}, blob: blob},
		}}}
		if err := tables.Validate(); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: Validate = %v, want ErrCorrupt", name, err)
		}
		requirePanics(t, name+" probe", func() { tables.Probe([]uint64{5}) })
	}
}
