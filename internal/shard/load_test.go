package shard_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"
	"time"

	"casa/internal/engine"
	"casa/internal/smem"
)

// loadChecked loads an index and requires that no goroutine it started
// is still running once it has returned.
func loadChecked(t *testing.T, data []byte) (engine.Engine, error) {
	t.Helper()
	before := runtime.NumGoroutine()
	e, _, err := engine.LoadIndex(bytes.NewReader(data))
	// A joined derivation goroutine may still be on its way out after
	// signalling completion; yield until it has gone.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before LoadIndex, %d after it returned", before, after)
	}
	return e, err
}

// section locates a named section of a casa-idx container: the offset
// of its CRC field and its payload bytes.
func section(t *testing.T, data []byte, name string) (crcAt int, payload []byte) {
	t.Helper()
	i := bytes.Index(data, []byte(name))
	if i < 2 || int(binary.LittleEndian.Uint16(data[i-2:])) != len(name) {
		t.Fatalf("section %q not found", name)
	}
	crcAt = i + len(name)
	size := int(binary.LittleEndian.Uint64(data[crcAt+4:]))
	return crcAt, data[crcAt+12 : crcAt+12+size]
}

// corruption is one damaged FM-index section and the error a load that
// derives each section before reading the next reports for it.
type corruption struct {
	name string
	do   func(data []byte) (want string)
}

// corruptions lists, for every shard's fwd and rev sections, a checksum
// that does not match the payload and a CRC-valid payload whose suffix
// array repeats a row.
func corruptions(t *testing.T, shards int) []corruption {
	var out []corruption
	for j := 0; j < shards; j++ {
		for _, dir := range []string{"fwd", "rev"} {
			full := fmt.Sprintf("shard%d/fmindex/%s", j, dir)
			out = append(out, corruption{full + " bad crc", func(data []byte) string {
				crcAt, _ := section(t, data, full)
				crc := binary.LittleEndian.Uint32(data[crcAt:])
				binary.LittleEndian.PutUint32(data[crcAt:], crc^1)
				return fmt.Sprintf("idxio: section %q: checksum mismatch (file %08x, computed %08x)", full, crc^1, crc)
			}})
			out = append(out, corruption{full + " duplicate row", func(data []byte) string {
				crcAt, payload := section(t, data, full)
				end := len(payload)
				copy(payload[end-8:end-4], payload[end-4:])
				binary.LittleEndian.PutUint32(data[crcAt:], crc32.ChecksumIEEE(payload))
				row := binary.LittleEndian.Uint32(payload[end-4:])
				return fmt.Sprintf("engine: section %q: fmindex: duplicate suffix array row %d", full, row)
			}})
		}
	}
	return out
}

// TestConcurrentLoadReportsSectionErrors corrupts each shard's FM-index
// sections, one at a time and in pairs, and requires the error of the
// first damaged section, word for word as a load that derives each
// section before reading the next reports it, with no goroutine left
// behind.
func TestConcurrentLoadReportsSectionErrors(t *testing.T) {
	ref, _ := testWorkload(t, 1<<14, 1)
	opt := engine.Options{MinSMEM: 19, Shards: 3}
	built, err := engine.New("sharded:fmindex", ref, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := engine.SaveIndex(&buf, built, opt, nil); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	cs := corruptions(t, 3)
	check := func(what string, data []byte, want string) {
		t.Helper()
		if _, err := loadChecked(t, data); err == nil || err.Error() != want {
			t.Errorf("%s: LoadIndex error\n  %v\nwant\n  %s", what, err, want)
		}
	}
	for _, c := range cs {
		data := bytes.Clone(valid)
		check(c.name, data, c.do(data))
	}
	// Two damaged sections: the earlier one's error wins, whichever of
	// the two is a derivation error.
	for a := range cs {
		for b := a + 2; b < len(cs); b += 3 {
			data := bytes.Clone(valid)
			want := cs[a].do(data)
			cs[b].do(data)
			check(cs[a].name+" then "+cs[b].name, data, want)
		}
	}
}

// TestConcurrentLoadIndependentOfProcs loads sharded FM-index engines at
// GOMAXPROCS 1 and 4 and requires the built engine's SMEMs from both,
// with no goroutine outliving LoadIndex.
func TestConcurrentLoadIndependentOfProcs(t *testing.T) {
	ref, reads := testWorkload(t, 1<<14, 12)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range []string{"sharded:fmindex", "sharded:cpu"} {
		opt := engine.Options{MinSMEM: 19, Shards: 4}
		built, err := engine.New(name, ref, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := engine.SaveIndex(&buf, built, opt, nil); err != nil {
			t.Fatal(err)
		}
		want := seedAll(t, built, reads)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			loaded, err := loadChecked(t, buf.Bytes())
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: %v", name, procs, err)
			}
			got := seedAll(t, loaded, reads)
			for i := range reads {
				if !smem.Equal(want[i], got[i]) {
					t.Fatalf("%s GOMAXPROCS=%d read %d: loaded index disagrees", name, procs, i)
				}
			}
		}
	}
}
