//go:build linux

package hugemem

import (
	"os"
	"strings"
	"sync"
	"syscall"
	"unsafe"
)

// pageSize is the huge-page size advised: x86-64's and 4 KiB-page
// arm64's PMD size.
const pageSize = 2 << 20

// enabled reports whether the host's transparent huge-page mode lets an
// advised range have huge pages ("always" or "madvise").
var enabled = sync.OnceValue(func() bool {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	return err == nil && !strings.Contains(string(mode), "[never]")
})

func advise[T any](s []T) {
	if cap(s) == 0 || !enabled() {
		return
	}
	s = s[:cap(s)]
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), uintptr(len(s))*unsafe.Sizeof(s[0]))
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	start := (addr + pageSize - 1) &^ (pageSize - 1)
	end := (addr + uintptr(len(b))) &^ (pageSize - 1)
	if end <= start {
		return
	}
	// The advice is a hint: a kernel that refuses it leaves small pages.
	_ = syscall.Madvise(b[start-addr:end-addr], syscall.MADV_HUGEPAGE)
}
