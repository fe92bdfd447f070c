// Package idxio implements the casa-idx/v1 on-disk index container: a
// versioned, checksummed binary envelope every persisting engine
// serializes into. The layout is
//
//	magic "casa-idx" | u32 version | u32 headerLen | header | u32 crc(header)
//	section*  ( u16 nameLen | name | u32 crc(payload) | u64 payloadLen | payload )
//	u16 0     (end marker)
//
// with every integer little-endian. The header carries the engine's
// registry name, the cross-engine construction options and the reference
// chromosome map; each engine then appends the sections it owns
// ("casa/accelerator", "fmindex/fwd", ...), so the container never needs
// to know an engine's internals. Sharded engines namespace their inner
// engines' sections with Prefixed.
//
// Readers are streaming and hostile-input safe: section payloads are
// consumed through length-limited, CRC-checked readers in bounded
// chunks, so a corrupted or lying section length fails with an error
// naming the section instead of panicking or allocating unbounded
// memory. The fuzz targets in this package pin that contract.
package idxio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
)

// Magic identifies a casa-idx container; Version is the format version
// this package reads and writes.
const (
	Magic   = "casa-idx"
	Version = 1
)

// Format bounds: a reader never trusts an on-disk length beyond these,
// so corrupted files cannot drive unbounded allocations.
const (
	maxHeaderLen   = 1 << 24 // 16 MiB of header is already implausible
	maxNameLen     = 1 << 10
	maxChromosomes = 1 << 20
)

// Chromosome is one reference sequence's placement in the flattened
// reference (mirrors refidx.Chromosome without importing it).
type Chromosome struct {
	Name   string
	Start  int64
	Length int64
}

// Header is the container's self-description: which engine the sections
// belong to, the cross-engine options it was built with, and the
// chromosome map of the flattened reference. Engine-native configuration
// (core.Config, cpu.Config, ...) travels inside the engine's own
// sections, not here.
type Header struct {
	Engine       string
	MinSMEM      int
	Partition    int
	TableK       int
	Exact        bool
	Shards       int
	ShardOverlap int
	Chromosomes  []Chromosome
}

// SectionInfo describes one section for inspection (casa-index -info).
type SectionInfo struct {
	Name string
	Size int64
	CRC  uint32
}

// ---------------------------------------------------------------------------
// Writer

// writerState is the shared core behind a Writer and its Prefixed views.
type writerState struct {
	w      io.Writer
	buf    bytes.Buffer // payload staging: CRC and length precede the payload
	closed bool
}

// Writer appends named, CRC'd sections to a container. Engines receive a
// Writer in SaveIndex and call Section once per payload they own;
// sections are written in call order and read back in the same order.
type Writer struct {
	st     *writerState
	prefix string
}

// NewWriter writes the container preamble (magic, version, header) to w
// and returns a section writer positioned at the first section.
func NewWriter(w io.Writer, hdr Header) (*Writer, error) {
	var hb bytes.Buffer
	if err := writeString16(&hb, hdr.Engine); err != nil {
		return nil, fmt.Errorf("idxio: header: %w", err)
	}
	// The zero between TableK and Shards fills a retired slot, kept so
	// the version-1 layout and every existing file stay valid.
	for _, v := range []int64{
		int64(hdr.MinSMEM), int64(hdr.Partition), int64(hdr.TableK),
		0, int64(hdr.Shards), int64(hdr.ShardOverlap),
	} {
		writeU64(&hb, uint64(v))
	}
	if hdr.Exact {
		hb.WriteByte(1)
	} else {
		hb.WriteByte(0)
	}
	if len(hdr.Chromosomes) > maxChromosomes {
		return nil, fmt.Errorf("idxio: header: %d chromosomes exceeds the format limit", len(hdr.Chromosomes))
	}
	writeU32(&hb, uint32(len(hdr.Chromosomes)))
	for _, c := range hdr.Chromosomes {
		if err := writeString16(&hb, c.Name); err != nil {
			return nil, fmt.Errorf("idxio: header: chromosome: %w", err)
		}
		writeU64(&hb, uint64(c.Start))
		writeU64(&hb, uint64(c.Length))
	}
	if hb.Len() > maxHeaderLen {
		return nil, fmt.Errorf("idxio: header of %d bytes exceeds the format limit", hb.Len())
	}

	var pre bytes.Buffer
	pre.WriteString(Magic)
	writeU32(&pre, Version)
	writeU32(&pre, uint32(hb.Len()))
	pre.Write(hb.Bytes())
	writeU32(&pre, crc32.ChecksumIEEE(hb.Bytes()))
	if _, err := w.Write(pre.Bytes()); err != nil {
		return nil, fmt.Errorf("idxio: writing header: %w", err)
	}
	return &Writer{st: &writerState{w: w}}, nil
}

// Prefixed returns a view of this writer that prepends prefix to every
// section name, so a composite engine can hand each sub-engine its own
// namespace ("shard0/" + "fmindex/fwd" = "shard0/fmindex/fwd").
func (w *Writer) Prefixed(prefix string) *Writer {
	return &Writer{st: w.st, prefix: w.prefix + prefix}
}

// Section appends one named section whose payload is produced by fn. The
// payload is staged in memory so its length and CRC precede it on disk;
// engine payloads are at most a few times the reference size, which the
// builder held in memory anyway.
func (w *Writer) Section(name string, fn func(io.Writer) error) error {
	if w.st.closed {
		return fmt.Errorf("idxio: section %q: writer already closed", name)
	}
	full := w.prefix + name
	if full == "" || len(full) > maxNameLen {
		return fmt.Errorf("idxio: section name %q must be 1..%d bytes", full, maxNameLen)
	}
	w.st.buf.Reset()
	if err := fn(&w.st.buf); err != nil {
		return fmt.Errorf("idxio: section %q: %w", full, err)
	}
	payload := w.st.buf.Bytes()
	var hd bytes.Buffer
	writeU16(&hd, uint16(len(full)))
	hd.WriteString(full)
	writeU32(&hd, crc32.ChecksumIEEE(payload))
	writeU64(&hd, uint64(len(payload)))
	if _, err := w.st.w.Write(hd.Bytes()); err != nil {
		return fmt.Errorf("idxio: section %q: %w", full, err)
	}
	if _, err := w.st.w.Write(payload); err != nil {
		return fmt.Errorf("idxio: section %q: %w", full, err)
	}
	return nil
}

// Close writes the end-of-sections marker. Only the root writer may be
// closed; prefixed views belong to their composite's caller.
func (w *Writer) Close() error {
	if w.prefix != "" {
		return fmt.Errorf("idxio: cannot close a prefixed section writer (%q)", w.prefix)
	}
	if w.st.closed {
		return nil
	}
	w.st.closed = true
	var hd bytes.Buffer
	writeU16(&hd, 0)
	if _, err := w.st.w.Write(hd.Bytes()); err != nil {
		return fmt.Errorf("idxio: writing end marker: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Reader

// readerState is the shared core behind a Reader and its Prefixed views.
type readerState struct {
	r   io.Reader
	cur *sectionReader // section currently being consumed, if any
	end bool           // end marker consumed

	derivs []*derivation // started by Go and not yet joined, in start order
	slots  chan struct{} // one token per derivation in flight
}

// derivation is one Go call's work: done closes once err is set.
type derivation struct {
	done chan struct{}
	err  error
}

// Reader walks a container's sections in order. Engines receive a Reader
// in LoadIndex and call Section once per payload they wrote, in the same
// order; payload bytes stream through a CRC-checking, length-limited
// reader, and the CRC is verified when the section is finished (drained
// by the next Section or Close call).
type Reader struct {
	st     *readerState
	prefix string
}

// NewReader parses the container preamble from r and returns a section
// reader positioned at the first section.
func NewReader(r io.Reader) (*Reader, Header, error) {
	var hdr Header
	var pre [16]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, hdr, fmt.Errorf("idxio: reading preamble: %w", err)
	}
	if string(pre[:8]) != Magic {
		return nil, hdr, fmt.Errorf("idxio: bad magic %q (not a casa-idx container)", pre[:8])
	}
	if v := binary.LittleEndian.Uint32(pre[8:12]); v != Version {
		return nil, hdr, fmt.Errorf("idxio: format version %d, this build reads version %d", v, Version)
	}
	hlen := binary.LittleEndian.Uint32(pre[12:16])
	if hlen > maxHeaderLen {
		return nil, hdr, fmt.Errorf("idxio: header length %d exceeds the format limit", hlen)
	}
	hb := make([]byte, hlen)
	if _, err := io.ReadFull(r, hb); err != nil {
		return nil, hdr, fmt.Errorf("idxio: reading header: %w", err)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return nil, hdr, fmt.Errorf("idxio: reading header checksum: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(hb), binary.LittleEndian.Uint32(crcb[:]); got != want {
		return nil, hdr, fmt.Errorf("idxio: header checksum mismatch (file %08x, computed %08x)", want, got)
	}
	hdr, err := parseHeader(hb)
	if err != nil {
		return nil, hdr, err
	}
	return &Reader{st: &readerState{r: r}}, hdr, nil
}

func parseHeader(b []byte) (Header, error) {
	var hdr Header
	p := &byteParser{b: b}
	hdr.Engine = p.string16()
	hdr.MinSMEM = int(p.u64())
	hdr.Partition = int(p.u64())
	hdr.TableK = int(p.u64())
	p.u64() // retired slot, written as zero
	hdr.Shards = int(p.u64())
	hdr.ShardOverlap = int(p.u64())
	hdr.Exact = p.u8() != 0
	n := p.u32()
	if p.err == nil && n > maxChromosomes {
		return hdr, fmt.Errorf("idxio: header: %d chromosomes exceeds the format limit", n)
	}
	for i := uint32(0); i < n && p.err == nil; i++ {
		c := Chromosome{Name: p.string16()}
		c.Start = int64(p.u64())
		c.Length = int64(p.u64())
		hdr.Chromosomes = append(hdr.Chromosomes, c)
	}
	if p.err != nil {
		return hdr, fmt.Errorf("idxio: header: %w", p.err)
	}
	if len(p.b) != 0 {
		return hdr, fmt.Errorf("idxio: header: %d trailing bytes", len(p.b))
	}
	return hdr, nil
}

// Prefixed returns a view of this reader that expects prefix before
// every section name, mirroring Writer.Prefixed.
func (r *Reader) Prefixed(prefix string) *Reader {
	return &Reader{st: r.st, prefix: r.prefix + prefix}
}

// Name returns the full container name of this reader's section name,
// every Prefixed prefix included, as idxio's own errors name it: an
// engine reporting a malformed payload names the section the same way.
func (r *Reader) Name(name string) string { return r.prefix + name }

// Section finishes the previous section (draining and CRC-checking it)
// and opens the next one, which must carry the given name. The returned
// reader yields exactly the section's payload bytes, and its Len() int
// method reports how many remain unread, so a decoder can bound a length
// the payload claims before allocating for it.
func (r *Reader) Section(name string) (io.Reader, error) {
	full := r.Name(name)
	got, sr, err := r.next()
	if err != nil {
		return nil, err
	}
	if sr == nil {
		return nil, fmt.Errorf("idxio: section %q: container ended before it", full)
	}
	if got != full {
		return nil, fmt.Errorf("idxio: section %q: found %q instead", full, got)
	}
	return sr, nil
}

// next finishes the current section and reads the next section header.
// A nil sectionReader with nil error means the end marker was reached.
func (r *Reader) next() (string, *sectionReader, error) {
	st := r.st
	if st.cur != nil {
		if err := st.cur.finish(); err != nil {
			return "", nil, err
		}
		st.cur = nil
	}
	if st.end {
		return "", nil, nil
	}
	var lb [2]byte
	if _, err := io.ReadFull(st.r, lb[:]); err != nil {
		return "", nil, fmt.Errorf("idxio: reading section header: %w", err)
	}
	nameLen := binary.LittleEndian.Uint16(lb[:])
	if nameLen == 0 {
		st.end = true
		return "", nil, nil
	}
	if nameLen > maxNameLen {
		return "", nil, fmt.Errorf("idxio: section name length %d exceeds the format limit", nameLen)
	}
	nb := make([]byte, int(nameLen)+12)
	if _, err := io.ReadFull(st.r, nb); err != nil {
		return "", nil, fmt.Errorf("idxio: reading section header: %w", err)
	}
	name := string(nb[:nameLen])
	crc := binary.LittleEndian.Uint32(nb[nameLen : nameLen+4])
	size := binary.LittleEndian.Uint64(nb[nameLen+4:])
	if size > 1<<62 {
		return name, nil, fmt.Errorf("idxio: section %q: implausible payload length %d", name, size)
	}
	sr := &sectionReader{name: name, r: st.r, remaining: int64(size), want: crc, crc: crc32.NewIEEE()}
	st.cur = sr
	return name, sr, nil
}

// Go runs derive on its own goroutine while the caller reads on. derive
// turns payload bytes already read into an engine's in-memory tables,
// such as an FM-index's occ planes, so deriving one section overlaps
// reading the next. At most GOMAXPROCS derivations run at once; past
// that, Go blocks until one finishes. A section's checksum is verified
// only when the next section opens, so derive must stay memory-safe on
// bytes that turn out to be corrupted. What derive produces may be used
// only once Wait, or Close, has returned nil.
func (r *Reader) Go(derive func() error) {
	st := r.st
	if st.slots == nil {
		st.slots = make(chan struct{}, runtime.GOMAXPROCS(0))
	}
	d := &derivation{done: make(chan struct{})}
	st.derivs = append(st.derivs, d)
	st.slots <- struct{}{}
	go func() {
		d.err = derive()
		<-st.slots
		close(d.done)
	}()
}

// Wait joins every derivation started with Go and returns the first of
// their errors in the order they were started, or else err, the error
// (possibly nil) that stopped the caller's own reading. A derivation
// works on sections read before that error occurred, so this is the
// error a load that derived each section before reading the next would
// have met first.
func (r *Reader) Wait(err error) error {
	var first error
	for _, d := range r.st.derivs {
		<-d.done
		if first == nil {
			first = d.err
		}
	}
	r.st.derivs = nil
	if first != nil {
		return first
	}
	return err
}

// Close drains any unfinished section, requires the end marker,
// verifying that every written section was accounted for, and waits for
// every derivation started with Go.
func (r *Reader) Close() error {
	return r.Wait(r.drain())
}

func (r *Reader) drain() error {
	if r.prefix != "" {
		return fmt.Errorf("idxio: cannot close a prefixed section reader (%q)", r.prefix)
	}
	for !r.st.end {
		_, sr, err := r.next()
		if err != nil {
			return err
		}
		if sr == nil {
			break
		}
		if err := sr.finish(); err != nil {
			return err
		}
	}
	return nil
}

// sectionReader streams one section's payload, checking length and CRC.
type sectionReader struct {
	name      string
	r         io.Reader
	remaining int64
	want      uint32
	crc       interface {
		io.Writer
		Sum32() uint32
	}
}

func (s *sectionReader) Read(p []byte) (int, error) {
	if s.remaining <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > s.remaining {
		p = p[:s.remaining]
	}
	n, err := s.r.Read(p)
	if n > 0 {
		s.remaining -= int64(n)
		s.crc.Write(p[:n])
	}
	if err == io.EOF && s.remaining > 0 {
		return n, fmt.Errorf("idxio: section %q: truncated payload (%d bytes missing)", s.name, s.remaining)
	}
	return n, err
}

// Len returns the number of payload bytes not yet read.
func (s *sectionReader) Len() int { return int(s.remaining) }

// finish drains the unread remainder in bounded chunks and verifies the
// section's checksum.
func (s *sectionReader) finish() error {
	var scratch [4096]byte
	for s.remaining > 0 {
		n := s.remaining
		if n > int64(len(scratch)) {
			n = int64(len(scratch))
		}
		if _, err := io.ReadFull(s.r, scratch[:n]); err != nil {
			return fmt.Errorf("idxio: section %q: truncated payload: %w", s.name, err)
		}
		s.crc.Write(scratch[:n])
		s.remaining -= n
	}
	if got := s.crc.Sum32(); got != s.want {
		return fmt.Errorf("idxio: section %q: checksum mismatch (file %08x, computed %08x)", s.name, s.want, got)
	}
	return nil
}

// ReadInfo walks a whole container, verifying every checksum, and
// returns its header and section catalogue (casa-index -info).
func ReadInfo(r io.Reader) (Header, []SectionInfo, error) {
	sr, hdr, err := NewReader(r)
	if err != nil {
		return hdr, nil, err
	}
	var infos []SectionInfo
	for {
		name, sec, err := sr.next()
		if err != nil {
			return hdr, infos, err
		}
		if sec == nil {
			return hdr, infos, nil
		}
		size, want := sec.remaining, sec.want
		if err := sec.finish(); err != nil {
			return hdr, infos, err
		}
		sr.st.cur = nil
		infos = append(infos, SectionInfo{Name: name, Size: size, CRC: want})
	}
}

// ---------------------------------------------------------------------------
// Little-endian primitives

func writeU16(w *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	w.Write(b[:])
}

func writeU32(w *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func writeU64(w *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

func writeString16(w *bytes.Buffer, s string) error {
	if len(s) > maxNameLen {
		return fmt.Errorf("string %q exceeds %d bytes", s, maxNameLen)
	}
	writeU16(w, uint16(len(s)))
	w.WriteString(s)
	return nil
}

// byteParser consumes little-endian primitives from a bounded buffer,
// recording the first error instead of panicking on truncation.
type byteParser struct {
	b   []byte
	err error
}

func (p *byteParser) take(n int) []byte {
	if p.err != nil {
		return nil
	}
	if len(p.b) < n {
		p.err = fmt.Errorf("truncated (%d bytes left, %d needed)", len(p.b), n)
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

func (p *byteParser) u8() byte {
	b := p.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (p *byteParser) u16() uint16 {
	b := p.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (p *byteParser) u32() uint32 {
	b := p.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (p *byteParser) u64() uint64 {
	b := p.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (p *byteParser) string16() string {
	n := p.u16()
	if n > maxNameLen {
		p.err = fmt.Errorf("string length %d exceeds the format limit", n)
		return ""
	}
	b := p.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}
