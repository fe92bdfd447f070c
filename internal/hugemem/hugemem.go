// Package hugemem backs large, randomly accessed tables with transparent
// huge pages. Seeding chains dependent random loads through tables of
// tens of megabytes (a CASA partition's mini index, tags, start masks
// and positions; an FM index's occ blocks and suffix array). With 4 KiB
// pages nearly every such load also misses the TLB, and filling a fresh
// table takes one page fault per 4 KiB. One 2 MiB page covers 512 of
// them. Advise asks the kernel for huge pages on a fresh slice before
// its first write; where the kernel has none to give, the slice behaves
// as before.
package hugemem

// Advise marks the whole huge pages inside s[:cap(s)] for transparent
// huge-page backing and returns s unchanged. The range is rounded inward,
// so no memory outside the slice is touched, and a slice smaller than
// one huge page is left alone. Call it on a freshly made slice, before
// its first write: pages already faulted in stay small until the
// kernel's background collapse reaches them. It is a no-op off Linux and
// when the host's huge-page mode is "never".
func Advise[T any](s []T) []T {
	advise(s)
	return s
}
