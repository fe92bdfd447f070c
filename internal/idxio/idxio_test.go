package idxio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"
)

func sampleHeader() Header {
	return Header{
		Engine:       "fmindex",
		MinSMEM:      19,
		Partition:    4096,
		TableK:       8,
		Exact:        true,
		Shards:       5,
		ShardOverlap: 512,
		Chromosomes: []Chromosome{
			{Name: "chr1", Start: 0, Length: 1000},
			{Name: "chr2", Start: 1256, Length: 2000},
		},
	}
}

// buildSample writes a two-section container and returns its bytes.
func buildSample(t *testing.T, hdr Header) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hdr)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := w.Section("fmindex/fwd", func(w io.Writer) error {
		_, err := w.Write([]byte("forward-payload"))
		return err
	}); err != nil {
		t.Fatalf("Section fwd: %v", err)
	}
	if err := w.Section("fmindex/rev", func(w io.Writer) error {
		_, err := w.Write(bytes.Repeat([]byte{0xAB}, 10000))
		return err
	}); err != nil {
		t.Fatalf("Section rev: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	hdr := sampleHeader()
	data := buildSample(t, hdr)

	r, got, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if got.Engine != hdr.Engine || got.MinSMEM != hdr.MinSMEM ||
		got.Partition != hdr.Partition || got.TableK != hdr.TableK ||
		got.Exact != hdr.Exact ||
		got.Shards != hdr.Shards || got.ShardOverlap != hdr.ShardOverlap {
		t.Fatalf("header mismatch: got %+v want %+v", got, hdr)
	}
	if len(got.Chromosomes) != 2 || got.Chromosomes[1] != hdr.Chromosomes[1] {
		t.Fatalf("chromosomes mismatch: %+v", got.Chromosomes)
	}

	sec, err := r.Section("fmindex/fwd")
	if err != nil {
		t.Fatalf("Section fwd: %v", err)
	}
	payload, err := io.ReadAll(sec)
	if err != nil {
		t.Fatalf("reading fwd: %v", err)
	}
	if string(payload) != "forward-payload" {
		t.Fatalf("fwd payload = %q", payload)
	}
	sec, err = r.Section("fmindex/rev")
	if err != nil {
		t.Fatalf("Section rev: %v", err)
	}
	payload, err = io.ReadAll(sec)
	if err != nil {
		t.Fatalf("reading rev: %v", err)
	}
	if len(payload) != 10000 || payload[0] != 0xAB {
		t.Fatalf("rev payload len=%d", len(payload))
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// The header's retired u64 slot between TableK and Shards once held a
// cache size: it is written as zero, and a container that stored a
// value there still loads with every other field intact.
func TestRetiredHeaderSlot(t *testing.T) {
	hdr := sampleHeader()
	data := buildSample(t, hdr)
	// magic | version | headerLen | string16 engine | MinSMEM, Partition, TableK
	hstart := len(Magic) + 8
	hlen := int(binary.LittleEndian.Uint32(data[len(Magic)+4:]))
	slot := hstart + 2 + len(hdr.Engine) + 3*8
	if got := binary.LittleEndian.Uint64(data[slot:]); got != 0 {
		t.Fatalf("retired slot written as %d, want 0", got)
	}

	old := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(old[slot:], 1<<14)
	binary.LittleEndian.PutUint32(old[hstart+hlen:], crc32.ChecksumIEEE(old[hstart:hstart+hlen]))
	r, got, err := NewReader(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("NewReader with a set retired slot: %v", err)
	}
	if got.TableK != hdr.TableK || got.Shards != hdr.Shards ||
		got.ShardOverlap != hdr.ShardOverlap || got.Exact != hdr.Exact ||
		len(got.Chromosomes) != len(hdr.Chromosomes) {
		t.Fatalf("header mismatch: got %+v want %+v", got, hdr)
	}
	if _, err := r.Section("fmindex/fwd"); err != nil {
		t.Fatal(err)
	}
}

// A reader may skip a section it does not care to stream: the next
// Section call drains and CRC-checks the previous one.
func TestSkipSectionStillChecksCRC(t *testing.T) {
	data := buildSample(t, sampleHeader())
	r, _, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Section("fmindex/fwd"); err != nil {
		t.Fatal(err)
	}
	// Do not read fwd at all; jump straight to rev, then Close.
	if _, err := r.Section("fmindex/rev"); err != nil {
		t.Fatalf("skipping fwd: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close after skip: %v", err)
	}
}

func TestPrefixedRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Engine: "sharded:cpu"})
	if err != nil {
		t.Fatal(err)
	}
	for i, payload := range []string{"alpha", "beta"} {
		pw := w.Prefixed("shard" + string(rune('0'+i)) + "/")
		if err := pw.Section("cpu/config", func(w io.Writer) error {
			_, err := io.WriteString(w, payload)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if err := pw.Close(); err == nil {
			t.Fatal("closing a prefixed writer should fail")
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, _, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"alpha", "beta"} {
		pr := r.Prefixed("shard" + string(rune('0'+i)) + "/")
		if got, want := pr.Prefixed("cpu/").Name("config"), fmt.Sprintf("shard%d/cpu/config", i); got != want {
			t.Fatalf("Name = %q, want %q", got, want)
		}
		sec, err := pr.Section("cpu/config")
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		got, err := io.ReadAll(sec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("shard %d payload = %q want %q", i, got, want)
		}
		if err := pr.Close(); err == nil {
			t.Fatal("closing a prefixed reader should fail")
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWrongSectionNameNamesBoth(t *testing.T) {
	data := buildSample(t, sampleHeader())
	r, _, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Section("fmindex/rev") // actual first section is fwd
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "fmindex/rev") || !strings.Contains(err.Error(), "fmindex/fwd") {
		t.Fatalf("error should name both sections: %v", err)
	}
}

func TestMissingSectionAtEnd(t *testing.T) {
	data := buildSample(t, sampleHeader())
	r, _, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Section("fmindex/fwd"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Section("fmindex/rev"); err != nil {
		t.Fatal(err)
	}
	_, err = r.Section("fmindex/extra")
	if err == nil || !strings.Contains(err.Error(), "fmindex/extra") {
		t.Fatalf("expected error naming the missing section, got %v", err)
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	data := buildSample(t, sampleHeader())

	bad := append([]byte(nil), data...)
	copy(bad, "nonsense")
	if _, _, err := NewReader(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}

	bad = append([]byte(nil), data...)
	bad[8] = 99 // version field
	if _, _, err := NewReader(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: %v", err)
	}
}

func TestHeaderCRCMismatch(t *testing.T) {
	data := buildSample(t, sampleHeader())
	bad := append([]byte(nil), data...)
	bad[20] ^= 0xFF // inside the header payload
	_, _, err := NewReader(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("expected header checksum error, got %v", err)
	}
}

func TestPayloadCRCMismatchNamesSection(t *testing.T) {
	data := buildSample(t, sampleHeader())
	// Flip the last payload byte of the rev section (just before the
	// 2-byte end marker).
	bad := append([]byte(nil), data...)
	bad[len(bad)-3] ^= 0xFF
	r, _, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Section("fmindex/fwd"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Section("fmindex/rev"); err != nil {
		t.Fatal(err)
	}
	err = r.Close()
	if err == nil || !strings.Contains(err.Error(), "fmindex/rev") || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("expected rev checksum error, got %v", err)
	}
}

func TestTruncationNamesSection(t *testing.T) {
	data := buildSample(t, sampleHeader())
	// Cut the container mid-way through the big rev payload.
	bad := data[:len(data)-5000]
	r, _, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Section("fmindex/fwd"); err != nil {
		t.Fatal(err)
	}
	sec, err := r.Section("fmindex/rev")
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(sec)
	if err == nil || !strings.Contains(err.Error(), "fmindex/rev") || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("expected rev truncation error, got %v", err)
	}
}

func TestOversizedSectionLengthFailsBounded(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Engine: "casa"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section("casa/accelerator", func(w io.Writer) error {
		_, err := w.Write([]byte("tiny"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The payload length u64 sits after nameLen(2) + name + crc(4).
	// Forge it to claim an enormous payload.
	off := len(data) - 2 /*end marker*/ - 4 /*payload*/ - 8 /*length*/
	for i := 0; i < 8; i++ {
		data[off+i] = 0xFF
	}
	r, _, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Section("casa/accelerator")
	if err == nil || !strings.Contains(err.Error(), "casa/accelerator") {
		t.Fatalf("expected bounded failure naming the section, got %v", err)
	}
}

func TestReadInfo(t *testing.T) {
	data := buildSample(t, sampleHeader())
	hdr, infos, err := ReadInfo(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadInfo: %v", err)
	}
	if hdr.Engine != "fmindex" {
		t.Fatalf("engine = %q", hdr.Engine)
	}
	if len(infos) != 2 {
		t.Fatalf("sections = %d", len(infos))
	}
	if infos[0].Name != "fmindex/fwd" || infos[0].Size != int64(len("forward-payload")) {
		t.Fatalf("info[0] = %+v", infos[0])
	}
	if infos[1].Name != "fmindex/rev" || infos[1].Size != 10000 {
		t.Fatalf("info[1] = %+v", infos[1])
	}
	if infos[0].CRC == 0 && infos[1].CRC == 0 {
		t.Fatal("CRCs not recorded")
	}
}

func TestEmptyContainer(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Engine: "brute"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, hdr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Engine != "brute" {
		t.Fatalf("engine = %q", hdr.Engine)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, infos, err := ReadInfo(bytes.NewReader(buf.Bytes())); err != nil || len(infos) != 0 {
		t.Fatalf("ReadInfo on empty container: %v %v", infos, err)
	}
}

func TestWriterRejectsBadNames(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Engine: "casa"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section("", func(io.Writer) error { return nil }); err == nil {
		t.Fatal("empty name accepted")
	}
	long := strings.Repeat("x", maxNameLen+1)
	if err := w.Section(long, func(io.Writer) error { return nil }); err == nil {
		t.Fatal("oversized name accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Section("late", func(io.Writer) error { return nil }); err == nil {
		t.Fatal("section after Close accepted")
	}
}

// TestSectionReportsUnreadLength pins the Len() int a section reader
// exposes, which decoders use to bound claimed lengths before allocating.
func TestSectionReportsUnreadLength(t *testing.T) {
	r, _, err := NewReader(bytes.NewReader(buildSample(t, sampleHeader())))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Section("fmindex/fwd"); err != nil {
		t.Fatal(err)
	}
	sec, err := r.Section("fmindex/rev")
	if err != nil {
		t.Fatal(err)
	}
	lr, ok := sec.(interface{ Len() int })
	if !ok {
		t.Fatal("section reader has no Len() int")
	}
	if got := lr.Len(); got != 10000 {
		t.Fatalf("Len before reading = %d, want 10000", got)
	}
	if _, err := io.ReadFull(sec, make([]byte, 123)); err != nil {
		t.Fatal(err)
	}
	if got := lr.Len(); got != 10000-123 {
		t.Fatalf("Len after 123 bytes = %d, want %d", got, 10000-123)
	}
}
