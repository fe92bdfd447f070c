package engine

import (
	"slices"

	"casa/internal/cpu"
	"casa/internal/dna"
	"casa/internal/smem"
)

// Positions resolves the reference occurrences of read[m.Start..m.End]
// for an engine that is not a Positioner: the ascending positions of
// ref's occurrences, the first max of them (max <= 0 returns all).
// Engines holding an FM-index of ref (fmindex, cpu) answer from its
// forward suffix array; the others scan ref directly, which costs
// O(len(ref) × SMEM length) per call: fine for demo-scale references,
// not for production genomes. Both give the same positions.
func Positions(e Engine, ref, read dna.Sequence, m smem.Match, max int) []int32 {
	if m.Start < 0 || m.End >= len(read) {
		return nil
	}
	pat := read[m.Start : m.End+1]
	var fm *smem.Bidirectional
	if u, ok := e.(Unwrapper); ok {
		switch x := u.Unwrap().(type) {
		case *smem.Bidirectional:
			fm = x
		case *cpu.Seeder:
			fm = x.Finder()
		}
	}
	if fm != nil {
		out := fm.Index.Fwd.Locate(fm.Index.Fwd.Find(pat), 0)
		slices.Sort(out)
		if max > 0 && len(out) > max {
			out = out[:max]
		}
		return out
	}
	var out []int32
scan:
	for p := 0; p+len(pat) <= len(ref); p++ {
		for i, b := range pat {
			if ref[p+i] != b {
				continue scan
			}
		}
		out = append(out, int32(p))
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}
