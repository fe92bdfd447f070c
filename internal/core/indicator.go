package core

// A k-mer's search indicator is the per-k-mer word of the pre-seeding
// filter's data array (§3, "search indicator ... a tuple that combines the
// start position and the group indicator of a k-mer"): a start mask whose
// bit s is set when some occurrence x of the k-mer has x mod Stride == s
// (how many X bases to pad, §3 "Non-overlapped Storage"), and a group mask
// whose bit g is set when some occurrence lives in computing-CAM group g.
// With the default Stride=40 and Groups=20 it is the paper's 60-bit word.
//
// The host filter stores only the start masks, one uint64 per k-mer: the
// group mask is a function of the k-mer's occurrence positions, which the
// behavioural model keeps anyway, so occupiedGroups derives it where it is
// read (rmemSearch's group gating, WriteIndex's file word).

// occupiedGroups returns the group mask of a k-mer's occurrence positions:
// position x lives in CAM entry x/Stride, and entries are spread round
// robin over Groups groups.
func occupiedGroups(positions []int32, cfg Config) uint64 {
	var mask uint64
	for _, pos := range positions {
		mask |= 1 << uint((int(pos)/cfg.Stride)%cfg.Groups)
	}
	return mask
}

// rotateMask rotates a stride-bit mask left by d (mod stride).
func rotateMask(mask uint64, d, stride int) uint64 {
	d = ((d % stride) + stride) % stride
	full := uint64(1)<<uint(stride) - 1
	return ((mask << uint(d)) | (mask >> uint(stride-d))) & full
}

// Aligned implements the paper's Analysis 2 alignment test (§4.2) between
// the k-mer starting at pivot z, whose start mask is pivotStarts, and the
// CRkM starting at read index crkmStart, whose start mask is crkmStarts:
// the pair is *possibly aligned* iff some occurrence offset a of z's k-mer
// and some offset b of the CRkM satisfy
//
//	(b - a) mod stride == (crkmStart - z) mod stride.
//
// This is the necessary condition |b_j - a_i| mod s == (d_r) mod s the
// CAM architecture evaluates with a shifted-AND on the start masks; it may
// over-approximate (report aligned for a truly unaligned pair), never the
// reverse, so discarding unaligned pivots is always safe.
func Aligned(pivotStarts, crkmStarts uint64, z, crkmStart, stride int) bool {
	d := crkmStart - z
	return rotateMask(pivotStarts, d, stride)&crkmStarts != 0
}
