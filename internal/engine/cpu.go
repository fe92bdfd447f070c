package engine

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"casa/internal/cpu"
	"casa/internal/dna"
	"casa/internal/idxio"
	"casa/internal/smem"
	"casa/internal/trace"
)

// cpuEngine adapts the software BWA-MEM2-class CPU seeding baseline.
type cpuEngine struct{ s *cpu.Seeder }

// CPU wraps an already-built CPU seeder as an Engine.
func CPU(s *cpu.Seeder) Engine { return &cpuEngine{s} }

func (e *cpuEngine) Name() string  { return "cpu" }
func (e *cpuEngine) Clone() Engine { return &cpuEngine{e.s.Clone()} }

func (e *cpuEngine) SeedTrace(reads []dna.Sequence, tb *trace.Buffer, base int) Activity {
	return e.s.SeedTrace(reads, tb, base)
}

func (e *cpuEngine) Reduce(acts []Activity) Result {
	return e.s.Reduce(typedActs[*cpu.Activity](acts)...)
}

func (e *cpuEngine) Seeds(acts []Activity) []Seeds {
	return activitySeeds(acts, func(a *cpu.Activity) ([][]smem.Match, [][]smem.Match) { return a.Reads, a.Rev })
}

func (e *cpuEngine) SeedsBothStrands() {}

func (e *cpuEngine) SMEMs(res Result) [][]smem.Match {
	return res.(*cpu.Result).Reads
}

// SeedReadInto implements ReadSeeder: both strands are searched through
// the seeder's per-clone scratch into dst's reused buffers.
func (e *cpuEngine) SeedReadInto(dst *Seeds, read dna.Sequence) bool {
	dst.Forward, dst.Reverse = e.s.SeedReadInto(dst.Forward[:0], dst.Reverse[:0], read)
	return true
}

func (e *cpuEngine) Model(res Result) Model {
	r := res.(*cpu.Result)
	return Model{Seconds: r.Seconds, ReadsPerS: r.Throughput}
}

func (e *cpuEngine) Unwrap() any { return e.s }

// SaveIndex implements IndexPersister: the platform configuration (the
// cost model is part of the engine's identity) plus the shared
// bidirectional FM-index sections under the "cpu/" prefix.
func (e *cpuEngine) SaveIndex(w *idxio.Writer) error {
	if err := w.Section("cpu/config", func(sw io.Writer) error {
		return writeCPUConfig(sw, e.s.Config())
	}); err != nil {
		return err
	}
	return saveBidirectional(w, "cpu/", e.s.Finder())
}

// LoadIndex implements IndexPersister on a NewEmpty instance.
func (e *cpuEngine) LoadIndex(r *idxio.Reader) error {
	sec, err := r.Section("cpu/config")
	if err != nil {
		return err
	}
	cfg, err := readCPUConfig(sec)
	if err != nil {
		return fmt.Errorf("engine: section %q: %w", "cpu/config", err)
	}
	f, err := loadBidirectional(r, "cpu/")
	if err != nil {
		return err
	}
	s, err := cpu.FromFinder(f, cfg)
	if err != nil {
		return err
	}
	e.s = s
	return nil
}

// writeCPUConfig / readCPUConfig persist cpu.Config manually (the name
// length-prefixed, integers as u64, floats as IEEE-754 bits) so the
// payload is byte-stable across Go versions, unlike encoding/gob.
func writeCPUConfig(w io.Writer, cfg cpu.Config) error {
	var buf []byte
	if len(cfg.Name) > 1<<10 {
		return fmt.Errorf("engine: cpu config name of %d bytes", len(cfg.Name))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(cfg.Name)))
	buf = append(buf, cfg.Name...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cfg.Threads))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cfg.MinSMEM))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cfg.LatencyNS))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cfg.MissRate))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cfg.OverheadFactor))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cfg.SocketWatts))
	_, err := w.Write(buf)
	return err
}

func readCPUConfig(r io.Reader) (cpu.Config, error) {
	var cfg cpu.Config
	var lb [2]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return cfg, err
	}
	nameLen := binary.LittleEndian.Uint16(lb[:])
	if nameLen > 1<<10 {
		return cfg, fmt.Errorf("config name length %d exceeds the format limit", nameLen)
	}
	body := make([]byte, int(nameLen)+6*8)
	if _, err := io.ReadFull(r, body); err != nil {
		return cfg, err
	}
	cfg.Name = string(body[:nameLen])
	u := body[nameLen:]
	cfg.Threads = int(binary.LittleEndian.Uint64(u[0:]))
	cfg.MinSMEM = int(binary.LittleEndian.Uint64(u[8:]))
	cfg.LatencyNS = math.Float64frombits(binary.LittleEndian.Uint64(u[16:]))
	cfg.MissRate = math.Float64frombits(binary.LittleEndian.Uint64(u[24:]))
	cfg.OverheadFactor = math.Float64frombits(binary.LittleEndian.Uint64(u[32:]))
	cfg.SocketWatts = math.Float64frombits(binary.LittleEndian.Uint64(u[40:]))
	return cfg, nil
}

func cpuFactory() Factory {
	return Factory{
		Name:        "cpu",
		Aliases:     []string{"bwa"},
		Description: "software BWA-MEM2-class FM-index seeding with the multicore memory model",
		New: func(ref dna.Sequence, opt Options) (Engine, error) {
			cfg := cpu.B12T()
			switch c := opt.Config.(type) {
			case nil:
				if opt.MinSMEM > 0 {
					cfg.MinSMEM = opt.MinSMEM
				}
			case cpu.Config:
				cfg = c
			default:
				return nil, fmt.Errorf("engine: cpu: Config is %T, want cpu.Config", opt.Config)
			}
			s, err := cpu.New(ref, cfg)
			if err != nil {
				return nil, err
			}
			return &cpuEngine{s}, nil
		},
		NewEmpty: func(Options) (Engine, error) {
			// The serialized cpu/config section carries the platform
			// configuration; header options are informational.
			return &cpuEngine{}, nil
		},
	}
}
