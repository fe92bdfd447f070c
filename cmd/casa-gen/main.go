// Command casa-gen generates a synthetic reference genome (FASTA) and a
// simulated read set (FASTQ), the workload substitutes for GRCh38/GRCm39
// and ERR194147/DWGSIM (see DESIGN.md).
//
// Usage:
//
//	casa-gen -bases 4194304 -reads 10000 -out ref.fa -reads-out reads.fq
//
// A flag combination that could not produce a read (or pair) is a usage
// error: casa-gen names the flag and exits 2 before writing anything.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"casa/internal/buildinfo"
	"casa/internal/dna"
	"casa/internal/readsim"
	"casa/internal/seqio"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes casa-gen with args, writing its summary line to stdout and
// errors to stderr, and returns the process exit code: 0 on success, 1
// when writing an output fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("casa-gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bases    = fs.Int("bases", 4<<20, "reference length in bases (split across chromosomes)")
		chroms   = fs.Int("chroms", 1, "number of chromosomes (FASTA records)")
		nReads   = fs.Int("reads", 10000, "number of simulated reads")
		readLen  = fs.Int("read-len", 101, "read length in bp")
		seed     = fs.Int64("seed", 1, "RNG seed")
		errRate  = fs.Float64("err", 0.001, "per-base sequencing error rate")
		mutRate  = fs.Float64("mut", 0.001, "per-base haplotype SNP rate")
		refOut   = fs.String("out", "ref.fa", "reference FASTA output path")
		readsOut = fs.String("reads-out", "reads.fq", "reads FASTQ output path")
		paired   = fs.Bool("paired", false, "emit paired-end reads (mate files <reads-out> and <reads-out>.2)")
		insert   = fs.Int("insert", 350, "paired-end mean fragment length")
		version  = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		buildinfo.Print(stdout, "casa-gen")
		return 0
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "casa-gen: %v\n", err)
		return code
	}

	if err := validate(*bases, *chroms, *nReads, *readLen, *paired, *insert); err != nil {
		return fail(2, err)
	}
	per := *bases / *chroms
	var recs []seqio.Record
	var all dna.Sequence
	for c := 0; c < *chroms; c++ {
		g := readsim.GenerateReference(readsim.DefaultGenome(per, *seed+int64(c)*13))
		recs = append(recs, seqio.Record{
			Name: fmt.Sprintf("chr%d", c+1),
			Desc: "casa-gen synthetic chromosome",
			Seq:  g,
		})
		all = append(all, g...)
	}
	profile := readsim.ReadProfile{
		Length:  *readLen,
		Count:   *nReads,
		Seed:    *seed + 1,
		MutRate: *mutRate,
		ErrRate: *errRate,
		RevComp: true,
	}
	if err := writeFile(*refOut, func(w io.Writer) error { return seqio.WriteFasta(w, recs, 70) }); err != nil {
		return fail(1, err)
	}

	if *paired {
		pp := readsim.PairProfile{Read: profile, InsertMean: *insert, InsertSD: *insert / 7}
		pp.Read.RevComp = false
		pairs := readsim.SimulatePairs(all, pp)
		r1, r2 := readsim.PairRecords(pairs)
		if err := writeFastq(*readsOut, r1); err != nil {
			return fail(1, err)
		}
		if err := writeFastq(*readsOut+".2", r2); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d chromosomes, %d bases) and %s/.2 (%d pairs)\n",
			*refOut, len(recs), len(all), *readsOut, len(pairs))
		return 0
	}

	reads := readsim.Simulate(all, profile)
	if err := writeFastq(*readsOut, readsim.Records(reads)); err != nil {
		return fail(1, err)
	}
	fmt.Fprintf(stdout, "wrote %s (%d chromosomes, %d bases) and %s (%d reads, %.1f%% exact)\n",
		*refOut, len(recs), len(all), *readsOut, len(reads), readsim.ExactFraction(reads)*100)
	return 0
}

// validate rejects the flag values for which the simulator would write
// an empty workload or panic.
func validate(bases, chroms, reads, readLen int, paired bool, insert int) error {
	if chroms < 1 {
		return fmt.Errorf("-chroms %d: need at least one chromosome", chroms)
	}
	refLen := bases / chroms * chroms
	switch {
	case refLen < 1:
		return fmt.Errorf("-bases %d is fewer than one base for each of the %d chromosomes (-chroms)", bases, chroms)
	case reads < 1:
		return fmt.Errorf("-reads %d: need at least one read", reads)
	case readLen < 1:
		return fmt.Errorf("-read-len %d: need at least one base", readLen)
	case readLen > refLen:
		return fmt.Errorf("-read-len %d is longer than the %d-base reference (-bases)", readLen, refLen)
	case paired && insert < readLen:
		return fmt.Errorf("-insert %d is shorter than a read (-read-len %d)", insert, readLen)
	case paired && insert > refLen:
		return fmt.Errorf("-insert %d is longer than the %d-base reference (-bases)", insert, refLen)
	}
	return nil
}

func writeFastq(path string, recs []seqio.Record) error {
	return writeFile(path, func(w io.Writer) error { return seqio.WriteFastq(w, recs) })
}

// writeFile creates path and fills it with write, reporting a failed
// close as well as a failed write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
