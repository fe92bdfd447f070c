package fmindex

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"casa/internal/dna"
	"casa/internal/suffixarray"
)

// buildOracle is the per-row derivation Derive replaced, kept as its
// oracle: one counter update and one read-modify-write of the row's
// occBlock per suffix-array row, and the C table counted from the text.
// sa must be a permutation of 0..len(text).
func buildOracle(text dna.Sequence, sa []int32) *FMIndex {
	n := len(text)
	f := &FMIndex{text: text, sa: sa, n: n}

	nb := (n + 1 + 63) / 64
	f.occ = make([]occBlock, nb+1)
	var run [4]int32
	for i, p := range sa {
		if i%64 == 0 {
			f.occ[i/64].counts = run
		}
		var b dna.Base
		if p == 0 {
			f.sentRow = int32(i) // sentinel precedes the first suffix
			b = 0                // placeholder bits; excluded via sentRow
		} else {
			b = text[p-1]
			run[b]++
		}
		f.occ[i/64].p0 |= uint64(b&1) << uint(i%64)
		f.occ[i/64].p1 |= uint64(b>>1) << uint(i%64)
	}
	f.occ[nb].counts = run

	var counts [5]int32
	counts[0] = 1
	for _, b := range text {
		counts[b+1]++
	}
	var sum int32
	for s := 0; s < 5; s++ {
		f.c[s] = sum
		sum += counts[s]
	}
	f.c[5] = sum
	return f
}

// sameTables fails t unless got's derived tables equal want's.
func sameTables(t *testing.T, what string, got, want *FMIndex) {
	t.Helper()
	if !slices.Equal(got.occ, want.occ) {
		t.Fatalf("%s: occ differs from the oracle", what)
	}
	if got.c != want.c {
		t.Fatalf("%s: c = %v, oracle %v", what, got.c, want.c)
	}
	if got.sentRow != want.sentRow {
		t.Fatalf("%s: sentRow = %d, oracle %d", what, got.sentRow, want.sentRow)
	}
}

// checkAgainstOracle derives text's tables through Build and through a
// Serialize → Deserialize round trip, read both with and without a
// reported length, and requires each to equal the oracle's.
func checkAgainstOracle(t *testing.T, what string, text dna.Sequence) {
	t.Helper()
	want := buildOracle(text, suffixarray.Build(text))
	f := Build(text)
	sameTables(t, what+" Build", f, want)
	var buf bytes.Buffer
	if err := f.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	for _, rd := range []struct {
		name string
		r    io.Reader
	}{
		{"exact-size", bytes.NewReader(buf.Bytes())},
		{"chunked", struct{ io.Reader }{bytes.NewReader(buf.Bytes())}},
	} {
		g, err := Deserialize(rd.r)
		if err != nil {
			t.Fatalf("%s %s Deserialize: %v", what, rd.name, err)
		}
		sameTables(t, what+" "+rd.name+" round trip", g, want)
	}
}

// TestDeriveMatchesOracle pins Derive's word-at-a-time tables to the
// per-row oracle at block-boundary lengths, at random lengths, and with
// the sentinel on the first, last and a middle row of a block.
func TestDeriveMatchesOracle(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128} {
		checkAgainstOracle(t, "n="+itoa(n), randomSeq(n, int64(n)+11))
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		n := rng.Intn(3000)
		checkAgainstOracle(t, "random n="+itoa(n), randSeq(rng, n))
	}

	// A run of one base puts the whole text's suffix, and so the
	// sentinel, on the last row n.
	for _, n := range []int{64, 96, 127} {
		text := make(dna.Sequence, n)
		for i := range text {
			text[i] = dna.T
		}
		if f := Build(text); f.sentRow != int32(n) {
			t.Fatalf("T^%d: sentinel on row %d, want %d", n, f.sentRow, n)
		}
		checkAgainstOracle(t, "T^"+itoa(n), text)
	}
	// Random texts place the sentinel anywhere; pick ones that put it on
	// the first, last and a middle row of a block that is not the last.
	const n = 400
	for _, slot := range []int32{0, 63, 29} {
		found := false
		for seed := int64(0); seed < 20000 && !found; seed++ {
			text := randomSeq(n, seed)
			f := Build(text)
			if f.sentRow%64 == slot && f.sentRow >= 64 && f.sentRow/64 < n/64 {
				checkAgainstOracle(t, "sentinel slot "+itoa(int(slot)), text)
				found = true
			}
		}
		if !found {
			t.Fatalf("no text of %d bases puts the sentinel in block slot %d", n, slot)
		}
	}
}

// FuzzDeserialize feeds arbitrary bytes to Deserialize. Each input must
// give a named "fmindex:" error or an index whose Rank and BWTAt agree
// with the oracle, whether or not the reader reports its length, and
// the bytes allocated stay bounded by the input's length.
func FuzzDeserialize(f *testing.F) {
	for _, n := range []int{0, 1, 5, 64, 100} {
		var buf bytes.Buffer
		if err := Build(randomSeq(n, int64(n))).Serialize(&buf); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		if n > 1 {
			dup := slices.Clone(valid)
			copy(dup[len(dup)-8:len(dup)-4], dup[len(dup)-4:])
			f.Add(dup)
		}
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 0xAA})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := Deserialize(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The decode buffers are fixed-size; every table is bounded by the
		// rows or bases the input can hold.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(16*len(data))+1<<20 {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), grew)
		}
		_, cerr := Deserialize(struct{ io.Reader }{bytes.NewReader(data)})
		if (err == nil) != (cerr == nil) {
			t.Fatalf("exact-size error %v, chunked error %v", err, cerr)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fmindex: ") || !strings.HasPrefix(cerr.Error(), "fmindex: ") {
				t.Fatalf("unnamed errors %q, %q", err, cerr)
			}
			return
		}
		want := buildOracle(g.text, g.sa)
		for r := int32(0); r <= int32(g.n); r++ {
			if g.BWTAt(r) != want.BWTAt(r) {
				t.Fatalf("BWTAt(%d) = %d, oracle %d", r, g.BWTAt(r), want.BWTAt(r))
			}
			for b := dna.Base(0); b < 4; b++ {
				if got, w := g.Rank(b, r+1), want.Rank(b, r+1); got != w {
					t.Fatalf("Rank(%d, %d) = %d, oracle %d", b, r+1, got, w)
				}
			}
		}
	})
}
