//go:build linux

package hugemem

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestAdvisedTableGetsHugePages makes a 16 MiB table through Advise,
// writes it, and finds huge pages backing its mapping in
// /proc/self/smaps. It skips on hosts whose huge-page mode is missing or
// "never", where Advise is documented to do nothing.
func TestAdvisedTableGetsHugePages(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || strings.Contains(string(mode), "[never]") {
		t.Skipf("transparent huge pages unavailable (%q, %v)", strings.TrimSpace(string(mode)), err)
	}
	table := Advise(make([]uint64, 2<<20))
	for i := range table {
		table[i] = uint64(i)
	}
	// The slice's first and last bytes may share a page with other
	// memory, which Advise leaves alone; its middle lies inside a whole
	// huge page.
	addr := uint64(uintptr(unsafe.Pointer(&table[len(table)/2])))
	kb, ok := anonHugeKB(t, addr)
	if !ok {
		t.Fatalf("no mapping holds the table at %#x", addr)
	}
	if kb == 0 {
		t.Errorf("the table's mapping has AnonHugePages 0 kB after Advise (mode %q)", strings.TrimSpace(string(mode)))
	}
	t.Logf("AnonHugePages %d kB in the table's mapping", kb)
}

// anonHugeKB returns the AnonHugePages of the /proc/self/smaps mapping
// that holds addr.
func anonHugeKB(t *testing.T, addr uint64) (uint64, bool) {
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("reading smaps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	inside := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if lo, hi, ok := strings.Cut(fields[0], "-"); ok && !strings.HasSuffix(fields[0], ":") {
			start, err1 := strconv.ParseUint(lo, 16, 64)
			end, err2 := strconv.ParseUint(hi, 16, 64)
			inside = err1 == nil && err2 == nil && start <= addr && addr < end
			continue
		}
		if inside && fields[0] == "AnonHugePages:" && len(fields) >= 2 {
			kb, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("smaps line %q: %v", sc.Text(), err)
			}
			return kb, true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return 0, false
}
