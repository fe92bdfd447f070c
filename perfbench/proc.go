package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"syscall"
	"time"
)

// cliRun is one finished invocation of a CLI under test, timed from
// outside: offsets are from the moment the process was started.
type cliRun struct {
	stdout    []byte          // everything written to stdout
	lineAt    []time.Duration // arrival offset of each stdout line
	lastByte  time.Duration   // arrival of the last stdout byte
	exited    time.Duration   // process exit
	markAt    time.Duration   // first stderr line containing the mark (-1 if none)
	stderr    []byte
	maxRSSMiB float64
}

// runCLI runs bin with args to completion, timestamping each stdout line as
// it arrives and the first stderr line that contains mark. The process is
// killed if ctx ends first; runCLI always waits for it to exit.
func runCLI(ctx context.Context, bin string, args []string, mark string) (cliRun, error) {
	run := cliRun{markAt: -1}
	cmd := exec.CommandContext(ctx, bin, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return run, err
	}
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		return run, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return run, fmt.Errorf("start %s: %w", bin, err)
	}
	stderrDone := make(chan struct{})
	var stderr bytes.Buffer
	go func() {
		defer close(stderrDone)
		br := bufio.NewReader(errPipe)
		for {
			line, err := br.ReadBytes('\n')
			if run.markAt < 0 && mark != "" && bytes.Contains(line, []byte(mark)) {
				run.markAt = time.Since(start)
			}
			stderr.Write(line)
			if err != nil {
				return
			}
		}
	}()
	var stdout bytes.Buffer
	br := bufio.NewReaderSize(out, 1<<16)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			at := time.Since(start)
			run.lastByte = at
			stdout.Write(line)
			if line[len(line)-1] == '\n' {
				run.lineAt = append(run.lineAt, at)
			}
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			if err != io.EOF {
				_ = cmd.Process.Kill() // the pipe broke: stop the child, Wait reaps it below
			}
			break
		}
	}
	<-stderrDone
	waitErr := cmd.Wait()
	run.exited = time.Since(start)
	run.stdout, run.stderr = stdout.Bytes(), stderr.Bytes()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.maxRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if waitErr != nil {
		return run, fmt.Errorf("%s: %w\n%s", bin, waitErr, tail(run.stderr, 2048))
	}
	return run, nil
}

// tail returns at most the last n bytes of b.
func tail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

// selfMaxRSSMiB is the peak resident set size of this process.
func selfMaxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
