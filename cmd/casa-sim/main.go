// Command casa-sim runs the CASA accelerator simulator over a reference
// (FASTA) and a read set (FASTQ), printing the modelled throughput,
// power, DRAM bandwidth, filter statistics, and the Table 4 style
// breakdown for the run.
//
// Usage:
//
//	casa-sim -ref ref.fa -reads reads.fq [-partition 4194304] [-k 19] [-naive]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"casa/internal/buildinfo"
	"casa/internal/core"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/refidx"
	"casa/internal/seqio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("casa-sim: ")
	var (
		refPath   = flag.String("ref", "", "reference FASTA (required unless -index)")
		indexPath = flag.String("index", "", "prebuilt casa-idx/v1 index holding a casa accelerator (casa-index output); overrides -ref and geometry flags")
		readsPath = flag.String("reads", "", "reads FASTQ (required)")
		partition = flag.Int("partition", 4<<20, "partition size in bases")
		k         = flag.Int("k", 19, "seed k-mer size")
		m         = flag.Int("m", 10, fmt.Sprintf("mini index m-mer size, at most %d", core.MaxMiniBases))
		minSMEM   = flag.Int("min-smem", 19, "minimum reported SMEM length")
		naive     = flag.Bool("naive", false, "disable the pre-seeding filter and analyses")
		noPrepass = flag.Bool("no-exact-prepass", false, "disable the exact-match prepass")
		maxReads  = flag.Int("max-reads", 0, "cap the number of reads (0 = all)")
		version   = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "casa-sim")
		return
	}
	if (*refPath == "" && *indexPath == "") || *readsPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	reads, err := loadReads(*readsPath, *maxReads)
	if err != nil {
		log.Fatal(err)
	}

	var acc *core.Accelerator
	if *indexPath != "" {
		f, err := os.Open(*indexPath)
		if err != nil {
			log.Fatal(err)
		}
		eng, hdr, err := engine.LoadIndex(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		// The simulator models the paper's accelerator specifically: any
		// casa-idx/v1 container works as long as it unwraps to one.
		u, ok := eng.(engine.Unwrapper)
		if ok {
			acc, ok = u.Unwrap().(*core.Accelerator)
		}
		if !ok {
			log.Fatalf("%s holds a %s index; casa-sim needs a casa index", *indexPath, hdr.Engine)
		}
	} else {
		ix, err := refidx.LoadFasta(*refPath)
		if err != nil {
			log.Fatal(err)
		}
		ref := ix.Flat()
		cfg := core.DefaultConfig()
		cfg.PartitionBases = *partition
		cfg.K, cfg.M, cfg.MinSMEM = *k, *m, *minSMEM
		if *naive {
			cfg.UseFilterTable = false
			cfg.UseAnalysis = false
			cfg.GroupGating = false
			cfg.EntryGating = false
		}
		if *noPrepass {
			cfg.ExactMatchPrepass = false
		}
		acc, err = engine.Build[*core.Accelerator]("casa", ref, engine.Options{Config: cfg})
		if err != nil {
			log.Fatal(err)
		}
	}
	cfg := acc.Config()
	fmt.Printf("reference: %d partitions; on-chip budget %.1f MB\n",
		acc.Partitions(), float64(cfg.OnChipBytes())/(1<<20))

	res := acc.SeedReads(reads)
	st := res.Stats
	fmt.Printf("reads:            %d (x2 strands x %d partitions)\n", len(reads), acc.Partitions())
	fmt.Printf("throughput:       %.3g reads/s (modelled, %d cycles)\n", res.Throughput(), res.Cycles)
	fmt.Printf("power:            %.2f W   efficiency: %.1f reads/mJ\n", res.Energy.PowerW(), res.ReadsPerMJ())
	fmt.Printf("DRAM:             %.1f GB/s average\n", res.DRAM.BandwidthGBs(res.Seconds))
	fmt.Printf("exact-match reads:%d   discarded (no hit): %d\n", st.ReadsExact, st.ReadsDiscarded)
	fmt.Printf("pivots:           %d total; filtered: table %d, CRkM %d, align %d; computed %d (%.3f%%)\n",
		st.PivotsTotal, st.PivotsFilteredTable, st.PivotsFilteredCRkM, st.PivotsFilteredAlign,
		st.PivotsComputed, 100*float64(st.PivotsComputed)/float64(max(st.PivotsTotal, 1)))
	fmt.Printf("CAM activity:     %d searches, %d rows enabled, %d stride steps, %d binary-search steps\n",
		st.CAMSearches, st.CAMRowsEnabled, st.StrideSteps, st.BinSearchSteps)
	smems := 0
	for _, rr := range res.Reads {
		smems += len(rr.Forward) + len(rr.Reverse)
	}
	fmt.Printf("SMEMs:            %d across both strands\n\n", smems)
	fmt.Println(res.Energy.String())
}

func loadReads(path string, maxReads int) ([]dna.Sequence, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reads []dna.Sequence
	err = seqio.ForEachFastq(f, func(rec seqio.Record) error {
		if maxReads > 0 && len(reads) >= maxReads {
			return nil
		}
		reads = append(reads, rec.Seq)
		return nil
	})
	return reads, err
}
