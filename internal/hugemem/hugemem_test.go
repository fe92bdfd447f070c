package hugemem

import (
	"testing"
	"unsafe"
)

// TestAdviseReturnsSliceUnchanged: nil, empty, capacity-only and
// sub-page slices come back with the same data pointer, length and
// capacity, and with their contents intact.
func TestAdviseReturnsSliceUnchanged(t *testing.T) {
	small := []int32{1, 2, 3}
	cases := map[string][]int32{
		"nil":           nil,
		"empty":         {},
		"capacity only": make([]int32, 0, 4<<20),
		"sub-page":      small,
		"large":         make([]int32, 3<<20, 5<<20),
	}
	for name, s := range cases {
		got := Advise(s)
		if (got == nil) != (s == nil) || len(got) != len(s) || cap(got) != cap(s) ||
			unsafe.SliceData(got) != unsafe.SliceData(s) {
			t.Errorf("%s: Advise changed the slice header", name)
		}
	}
	if small[0] != 1 || small[1] != 2 || small[2] != 3 {
		t.Errorf("Advise changed a sub-page slice's contents: %v", small)
	}
}
