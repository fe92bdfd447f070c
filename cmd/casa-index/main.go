// Command casa-index builds a seeding index offline for any persisting
// engine in the internal/engine registry and writes it as a versioned,
// checksummed casa-idx/v1 container, matching the paper's flow ("CASA
// builds the mini index table and the tag table offline for each
// reference partition", §4.1). casa-smem, casa-serve and casa-align
// load the result with -index, skipping reconstruction.
//
// The output is written atomically: the container is staged in a
// temporary file next to -out and renamed into place only after a
// successful write, so a crash or a full disk never leaves a truncated
// index under the final name.
//
// Usage:
//
//	casa-index -ref ref.fa -out ref.casaidx [-engine casa] [-min-smem 19] [-shards N]
//	casa-index -info ref.casaidx
//
// The two modes are exclusive: combining -info with any build flag is a
// usage error (exit 2), not a silent ignore — a typo like
// `casa-index -info old.casaidx -out new.casaidx` must not masquerade as
// a successful rebuild.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"casa/internal/buildinfo"
	"casa/internal/core"
	"casa/internal/engine"
	"casa/internal/idxio"
	"casa/internal/refidx"
	_ "casa/internal/shard" // registers the sharded:<name> composites
)

// options holds the parsed command line.
type options struct {
	ref, out, info string
	eng            string
	minSMEM        int
	partition      int
	k, m           int
	shards         int
	shardOverlap   int
	version        bool

	// kSet/mSet record whether the casa-specific geometry knobs were
	// given explicitly; they select the core.Config build path and are
	// rejected for engines that have no such config.
	kSet, mSet bool
}

// buildOnly names the flags that configure an index build and therefore
// contradict -info, which only reads an existing index.
var buildOnly = map[string]bool{
	"ref": true, "out": true, "engine": true, "min-smem": true,
	"partition": true, "k": true, "m": true,
	"shards": true, "shard-overlap": true,
}

// parseArgs registers the flags on fs and parses args, rejecting
// contradictory mode mixes. Only flags the user explicitly set count:
// defaults never conflict.
func parseArgs(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.ref, "ref", "", "reference FASTA")
	fs.StringVar(&o.out, "out", "ref.casaidx", "index output path")
	fs.StringVar(&o.eng, "engine", "casa", "engine to index for (any registered name; \"list\" prints them)")
	fs.IntVar(&o.minSMEM, "min-smem", 19, "minimum SMEM length recorded in the index header")
	fs.IntVar(&o.partition, "partition", 0, "partition size in bases for partitioning engines (0 = engine default)")
	fs.IntVar(&o.k, "k", 19, "seed k-mer size (casa engine only)")
	fs.IntVar(&o.m, "m", 10, fmt.Sprintf("mini index m-mer size, at most %d (casa engine only)", core.MaxMiniBases))
	fs.IntVar(&o.shards, "shards", 0, "reference shards for sharded:* engines (0 = engine default)")
	fs.IntVar(&o.shardOverlap, "shard-overlap", 0, "shard overlap in bases; must be >= the longest read seeded (0 = engine default)")
	fs.StringVar(&o.info, "info", "", "inspect an existing index instead of building")
	fs.BoolVar(&o.version, "version", false, "print build info and exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var mixed []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "k":
			o.kSet = true
		case "m":
			o.mSet = true
		}
		if o.info != "" && buildOnly[f.Name] {
			mixed = append(mixed, "-"+f.Name)
		}
	})
	if len(mixed) > 0 {
		sort.Strings(mixed)
		return nil, fmt.Errorf("-info inspects an existing index and cannot be combined with build flag(s) %s", strings.Join(mixed, ", "))
	}
	return o, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("casa-index: ")
	fs := flag.NewFlagSet("casa-index", flag.ExitOnError)
	o, err := parseArgs(fs, os.Args[1:])
	if err != nil {
		log.Print(err)
		fs.Usage()
		os.Exit(2)
	}

	if o.version {
		buildinfo.Print(os.Stdout, "casa-index")
		return
	}
	if o.eng == "list" {
		engine.WriteList(os.Stdout)
		return
	}
	if o.info != "" {
		inspect(o.info)
		return
	}
	if o.ref == "" {
		fs.Usage()
		os.Exit(2)
	}
	f, ok := engine.Lookup(o.eng)
	if !ok {
		var sb strings.Builder
		engine.WriteList(&sb)
		log.Fatalf("unknown engine %q; registered engines:\n%s", o.eng, sb.String())
	}
	name := f.Name
	if f.NewEmpty == nil {
		log.Fatalf("engine %s does not support index persistence (it rebuilds from FASTA as fast as it would load)", name)
	}

	ix, err := refidx.LoadFasta(o.ref)
	if err != nil {
		log.Fatal(err)
	}
	ref := ix.Flat()
	var chroms []idxio.Chromosome
	for _, c := range ix.Chromosomes() {
		chroms = append(chroms, idxio.Chromosome{
			Name: c.Name, Start: int64(c.Start), Length: int64(c.Length),
		})
	}

	opt := engine.Options{
		MinSMEM:      o.minSMEM,
		Partition:    o.partition,
		Shards:       o.shards,
		ShardOverlap: o.shardOverlap,
	}
	if o.kSet || o.mSet {
		if strings.TrimPrefix(name, "sharded:") != "casa" {
			log.Fatalf("-k and -m configure the casa accelerator; they do not apply to -engine %s", name)
		}
		cfg := core.DefaultConfig()
		cfg.K, cfg.M = o.k, o.m
		if o.minSMEM > cfg.K {
			cfg.MinSMEM = o.minSMEM
		} else {
			cfg.MinSMEM = cfg.K
		}
		if o.partition > 0 {
			cfg.PartitionBases = o.partition
		}
		opt.Config = cfg
	}

	start := time.Now()
	eng, err := engine.New(name, ref, opt)
	if err != nil {
		log.Fatal(err)
	}
	buildTime := time.Since(start)

	start = time.Now()
	size, err := writeAtomic(o.out, func(w io.Writer) error {
		return engine.SaveIndex(w, eng, opt, chroms)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d bases (%d sequences) for %s in %v; wrote %s (%.1f MB) in %v\n",
		len(ref), len(chroms), name, buildTime.Round(time.Millisecond),
		o.out, float64(size)/(1<<20), time.Since(start).Round(time.Millisecond))
}

// writeAtomic streams write into a temporary file beside path and renames
// it into place on success, so the final name only ever holds a complete
// container. The temp file is removed on any failure.
func writeAtomic(path string, write func(io.Writer) error) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	committed := false
	defer func() {
		if !committed {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		return 0, err
	}
	st, err := tmp.Stat()
	if err != nil {
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	committed = true
	return st.Size(), nil
}

// inspect prints the casa-idx/v1 header and the section table — name,
// payload size and CRC32 per section — without loading the engine.
func inspect(path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	hdr, infos, err := idxio.ReadInfo(f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s/v%d %s\n", idxio.Magic, idxio.Version, path)
	fmt.Printf("  engine: %s\n", hdr.Engine)
	fmt.Printf("  options: min-smem=%d partition=%d table-k=%d exact=%v shards=%d shard-overlap=%d\n",
		hdr.MinSMEM, hdr.Partition, hdr.TableK, hdr.Exact, hdr.Shards, hdr.ShardOverlap)
	if len(hdr.Chromosomes) > 0 {
		fmt.Printf("  sequences: %d\n", len(hdr.Chromosomes))
		for _, c := range hdr.Chromosomes {
			fmt.Printf("    %-20s start %12d  length %12d\n", c.Name, c.Start, c.Length)
		}
	}
	fmt.Printf("  sections: %d\n", len(infos))
	var total int64
	for _, s := range infos {
		fmt.Printf("    %-28s %12d bytes  crc32 %08x\n", s.Name, s.Size, s.CRC)
		total += s.Size
	}
	fmt.Printf("  total payload: %.1f MB\n", float64(total)/(1<<20))
}
