package runcli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/seqio"
	"casa/internal/smem"
)

// Source is a run's read input: one FASTQ, or two mate files read in
// lockstep with the mates interleaved (global read index = 2*pair +
// mate), parsed in its own goroutine at most two batches ahead of
// seeding: one batch waits in the channel, one is parsed or waiting to
// be sent. The record slices of seeded batches come back through free,
// so a run allocates at most three of them, not one per batch.
type Source struct {
	batches <-chan parsed
	free    chan []seqio.Record
	stop    chan struct{}
}

// parsed is one batch of records, or the input error that ended the
// stream.
type parsed struct {
	recs []seqio.Record
	err  error
}

// OpenReads opens path1, and the mate file path2 when it is not empty,
// and starts parsing them into batches of size reads per file (pairs in
// paired mode). The parse stops after max reads per file (0 = all)
// without reading further, at the end of the input, after sending an
// input error or when r.Ctx ends; then it calls done when it is not nil.
// A batch parsed before an input error is sent, and seeded, before the
// error. A file that cannot be opened ends the run through Fatal.
func (r *Run) OpenReads(path1, path2 string, size, max int, done func()) *Source {
	var readers []*seqio.FastqReader
	var files []*os.File
	for _, p := range []string{path1, path2} {
		if p == "" {
			continue
		}
		f, err := os.Open(p)
		if err != nil {
			r.Fatal(err)
		}
		files = append(files, f)
		readers = append(readers, seqio.NewFastqReader(f))
	}
	ch := make(chan parsed, 1)
	src := &Source{batches: ch, free: make(chan []seqio.Record, 2), stop: make(chan struct{})}
	send := func(b parsed) bool {
		select {
		case ch <- b:
			return true
		case <-src.stop:
		case <-r.Ctx.Done():
		}
		return false
	}
	go func() {
		defer close(ch)
		if done != nil {
			defer done()
		}
		for _, f := range files {
			defer f.Close()
		}
		counts := make([]int, len(readers)) // records read from each file
		for total := 0; max <= 0 || total < max; {
			n := size
			if max > 0 {
				n = min(n, max-total)
			}
			var buf []seqio.Record
			select {
			case buf = <-src.free:
			default:
				buf = make([]seqio.Record, 0, size*len(readers))
			}
			recs, err := r.readMates(readers, counts, buf[:0], n)
			total += len(recs) / len(readers)
			if len(recs) > 0 && !send(parsed{recs: recs}) {
				return
			}
			if err != nil {
				if err != io.EOF {
					send(parsed{err: err})
				}
				return
			}
		}
	}()
	return src
}

// readMates appends up to n records from each reader, read in lockstep
// with the mates interleaved, to recs, counting them in counts. It
// returns whole pairs only, with io.EOF at the end of the input. Mate
// files that end at different records are an error naming both files'
// record counts.
func (r *Run) readMates(readers []*seqio.FastqReader, counts []int, recs []seqio.Record, n int) ([]seqio.Record, error) {
	k := len(readers)
	for len(recs) < n*k {
		ended := 0
		for i, fr := range readers {
			rec, err := fr.Next()
			if err == io.EOF {
				ended++
				continue
			}
			if err != nil {
				return recs[:len(recs)/k*k], err
			}
			counts[i]++
			recs = append(recs, rec)
		}
		switch {
		case ended == k:
			return recs, io.EOF
		case ended > 0:
			for i, fr := range readers {
				for {
					if _, err := fr.Next(); err == io.EOF {
						break
					} else if err != nil {
						return recs[:len(recs)/k*k], err
					}
					counts[i]++
				}
			}
			return recs[:len(recs)/k*k], fmt.Errorf("%s: mate files differ in length: %d vs %d", r.spec.Name, counts[0], counts[1])
		}
	}
	return recs, nil
}

// Batch is one seeded batch of a run's stream: its reads' records, mates
// interleaved, beside their seeds. Records is reused for a later batch
// once emit returns.
type Batch struct {
	batch.Batch
	Records []seqio.Record
}

// Stream seeds src's batches with eng on the run's pool (batch.Stream):
// each batch's reads pass engine.CheckReads, are seeded and are handed to
// emit in input order, and eng's model is reduced once after the last
// batch. It records the stream as the seed phase and each emit as an
// output phase, and refreshes the stall watchdog after each emit.
//
// With -verify, each seeded batch's forward SMEMs are cross-checked
// against the verify engine, which Engine built, on a second pool that
// records into the run's metrics, cycle trace and wall trace but not its
// progress, and that is reduced once after eng. Each mismatching read is
// printed to stderr. On an interrupt the seeded prefix is still
// cross-checked, so both engines' models cover the same reads.
//
// Stream returns the number of reads seeded, the mismatch count and
// whether the run was interrupted; any other error ends the run through
// Fatal.
func (r *Run) Stream(eng engine.Engine, src *Source, emit func(Batch) error) (done, mismatches int, interrupted bool) {
	defer close(src.stop)
	var recs []seqio.Record // the batch being seeded
	var names []string      // its read names, for CheckReads
	next := func() ([]dna.Sequence, error) {
		var b parsed
		var ok bool
		select {
		case b, ok = <-src.batches:
		case <-r.Ctx.Done():
			// An interrupt while the input is slow to arrive (a pipe)
			// ends the run without waiting for the next batch.
			return nil, r.Ctx.Err()
		}
		if !ok {
			return nil, io.EOF
		}
		if b.err != nil {
			return nil, b.err
		}
		recs, names = b.recs, names[:0]
		reads := make([]dna.Sequence, len(recs))
		for i, rec := range recs {
			reads[i] = rec.Seq
			names = append(names, rec.Name)
		}
		if err := engine.CheckReads(eng, reads, names); err != nil {
			return nil, err
		}
		r.Tracker.AddTotal(int64(len(reads)))
		return reads, nil
	}
	var verify *batch.Seeder
	if r.verify != nil {
		pool := r.Pool()
		pool.Progress = nil
		verify = batch.NewSeeder(r.verify, pool)
	}
	start := time.Now()
	_, done, err := batch.Stream(r.Ctx, eng, next, func(b batch.Batch) error {
		if verify != nil {
			vb, _ := verify.Seed(context.Background(), b.Reads)
			for i, want := range vb.Seeds {
				if got := b.Seeds[i].Forward; !smem.SameIntervals(got, want.Forward) {
					mismatches++
					fmt.Fprintf(os.Stderr, "MISMATCH %s:\n  %s: %v\n  %s: %v\n", recs[i].Name, r.EngineName, got, r.Verify, want.Forward)
				}
			}
		}
		emitStart := time.Now()
		err := emit(Batch{Batch: b, Records: recs[:len(b.Reads)]})
		r.Phase("output", emitStart)
		select {
		case src.free <- recs:
		default:
		}
		r.Tracker.Touch()
		return err
	}, r.Pool())
	if verify != nil {
		verify.Reduce()
	}
	r.Phase("seed", start)
	r.Tracker.Finish()
	interrupted = errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		r.Fatal(err)
	}
	if interrupted {
		r.Log.Warn("run interrupted; reporting the completed prefix", "reads_done", done)
	}
	return done, mismatches, interrupted
}
