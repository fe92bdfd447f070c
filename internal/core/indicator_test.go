package core

import (
	"math/rand"
	"testing"
)

func TestIndicatorAddOccurrence(t *testing.T) {
	cfg := DefaultConfig() // stride 40, groups 20
	var s indicator
	s = s.addOccurrence(85, cfg) // 85 mod 40 = 5; entry 85/40=2, group 2
	if s.starts != 1<<5 || s.groups != 1<<2 {
		t.Errorf("indicator = %+v", s)
	}
	s = s.addOccurrence(5, cfg) // same offset, group 0
	if s.starts != 1<<5 || s.groups != 1<<2|1 {
		t.Errorf("indicator = %+v", s)
	}
}

// TestOccupiedGroups checks the group mask the filter derives from
// positions, including entries past the last group, which wrap round
// robin, and a stride of 64 with 40 groups, whose indicator is wider than
// one word.
func TestOccupiedGroups(t *testing.T) {
	cfg := DefaultConfig()
	if got := occupiedGroups([]int32{5, 85}, cfg); got != 1<<2|1 {
		t.Errorf("occupiedGroups = %b", got)
	}
	if got := occupiedGroups([]int32{20 * 40, 21*40 + 39}, cfg); got != 1|1<<1 {
		t.Errorf("wrapped groups = %b", got)
	}
	if got := occupiedGroups(nil, cfg); got != 0 {
		t.Errorf("no positions = %b", got)
	}
	cfg.Stride, cfg.Groups = 64, 40
	if got := occupiedGroups([]int32{39 * 64, 40 * 64}, cfg); got != 1<<39|1 {
		t.Errorf("stride 64, 40 groups = %b", got)
	}
}

func TestRotateMask(t *testing.T) {
	if got := rotateMask(1<<39, 1, 40); got != 1 {
		t.Errorf("rotate wrap = %b", got)
	}
	if got := rotateMask(1, -1, 40); got != 1<<39 {
		t.Errorf("negative rotate = %b", got)
	}
	if got := rotateMask(0b101, 40, 40); got != 0b101 {
		t.Errorf("full rotate = %b", got)
	}
	if got := rotateMask(0b11, 2, 40); got != 0b1100 {
		t.Errorf("rotate 2 = %b", got)
	}
}

func TestAlignedPaperExample(t *testing.T) {
	// Example 2 of Fig 10 with CAM entry size 5: ATTG (pivot 4's k-mer)
	// starts at offset 4 in its entry, TCAT (the CRkM) at offset 4. The
	// read distance is 4, 4 mod 5 = 4, but the hit distance mod 5 is 0:
	// unaligned, pivot 4 is disposable. (1-based indices in the paper;
	// 0-based below: z=3, crkmStart=7.)
	pivotStarts := uint64(1 << 4)
	crkmStarts := uint64(1 << 4)
	if Aligned(pivotStarts, crkmStarts, 3, 7, 5) {
		t.Error("paper example 2 must be unaligned")
	}
	// If TCAT instead started at offset 3 = (4+4) mod 5, they would align.
	crkmAligned := uint64(1 << 3)
	if !Aligned(pivotStarts, crkmAligned, 3, 7, 5) {
		t.Error("offset (4+4) mod 5 = 3 must align")
	}
}

func TestAlignedNeverFalseNegative(t *testing.T) {
	// Safety property: whenever true occurrence positions are at the exact
	// read distance, Aligned must report aligned. Random trials.
	rng := rand.New(rand.NewSource(1))
	const stride = 40
	for trial := 0; trial < 2000; trial++ {
		z := rng.Intn(80)
		crkmStart := z + 1 + rng.Intn(80)
		d := crkmStart - z
		a := rng.Intn(1 << 20) // pivot k-mer hit position
		b := a + d             // CRkM hit at the exact distance
		pivotStarts := uint64(1) << uint(a%stride)
		crkmStarts := uint64(1) << uint(b%stride)
		// Noise offsets must not break the guarantee.
		pivotStarts |= 1 << uint(rng.Intn(stride))
		crkmStarts |= 1 << uint(rng.Intn(stride))
		if !Aligned(pivotStarts, crkmStarts, z, crkmStart, stride) {
			t.Fatalf("trial %d: exact-distance hits reported unaligned (z=%d, crkm=%d, a=%d, b=%d)",
				trial, z, crkmStart, a, b)
		}
	}
}

func TestAlignedDetectsImpossibleDistances(t *testing.T) {
	// A single offset pair whose congruence differs from the read distance
	// must be unaligned.
	// Read distance 5: need offset b = (0+5) mod 40 = 5, but only 10 set.
	if Aligned(1<<0, 1<<10, 0, 5, 40) {
		t.Error("impossible congruence reported aligned")
	}
}
