package engine

import (
	"fmt"
	"io"
	"strings"

	"casa/internal/fmindex"
	"casa/internal/idxio"
	"casa/internal/smem"
)

// IndexPersister is the optional persistence capability: engines that
// can serialize their built indexes into a casa-idx container and
// reconstruct themselves from one. SaveIndex appends only the sections
// the engine owns; LoadIndex consumes them in the same order on an
// instance produced by the factory's NewEmpty. LoadIndex may leave table
// derivations running on r (idxio.Reader.Go); the engine is ready once
// r.Wait returns nil, which the package-level LoadIndex (through Close)
// and every composite's LoadIndex see to before returning. Engines
// without the capability rebuild from FASTA (Factory.NewEmpty == nil
// documents the excuse).
type IndexPersister interface {
	SaveIndex(w *idxio.Writer) error
	LoadIndex(r *idxio.Reader) error
}

// HeaderFor assembles the container header recorded alongside an
// engine's sections: the registry name, the cross-engine options the
// engine was built with and the reference's chromosome map.
func HeaderFor(name string, opt Options, chroms []idxio.Chromosome) idxio.Header {
	return idxio.Header{
		Engine:       name,
		MinSMEM:      opt.MinSMEM,
		Partition:    opt.Partition,
		TableK:       opt.TableK,
		Exact:        opt.Exact,
		Shards:       opt.Shards,
		ShardOverlap: opt.ShardOverlap,
		Chromosomes:  chroms,
	}
}

// OptionsFromHeader restores the cross-engine options a container was
// built with, so a loaded engine reports the same MinSMEM (etc.) the
// builder used.
func OptionsFromHeader(hdr idxio.Header) Options {
	return Options{
		MinSMEM:      hdr.MinSMEM,
		Partition:    hdr.Partition,
		TableK:       hdr.TableK,
		Exact:        hdr.Exact,
		Shards:       hdr.Shards,
		ShardOverlap: hdr.ShardOverlap,
	}
}

// SaveIndex writes a complete casa-idx container for e to w: header,
// the engine's sections, end marker. opt must be the options e was
// built with (they are recorded in the header and re-applied on load);
// chroms is the reference's chromosome map (may be nil for a bare
// flattened reference).
func SaveIndex(w io.Writer, e Engine, opt Options, chroms []idxio.Chromosome) error {
	p, ok := e.(IndexPersister)
	if !ok {
		return fmt.Errorf("engine: %s does not support index persistence", e.Name())
	}
	iw, err := idxio.NewWriter(w, HeaderFor(e.Name(), opt, chroms))
	if err != nil {
		return err
	}
	if err := p.SaveIndex(iw); err != nil {
		return err
	}
	return iw.Close()
}

// LoadIndex reads a casa-idx container and reconstructs the engine that
// wrote it, resolving the engine through the registry so every consumer
// (CLIs, server, tests) loads any persisting engine the same way.
func LoadIndex(r io.Reader) (Engine, idxio.Header, error) {
	ir, hdr, err := idxio.NewReader(r)
	if err != nil {
		return nil, hdr, err
	}
	f, ok := Lookup(hdr.Engine)
	if !ok {
		return nil, hdr, fmt.Errorf("engine: index built by unknown engine %q (registered: %s)",
			hdr.Engine, strings.Join(Names(), ", "))
	}
	if f.NewEmpty == nil {
		return nil, hdr, fmt.Errorf("engine: %s does not support index persistence", f.Name)
	}
	e, err := f.NewEmpty(OptionsFromHeader(hdr))
	if err != nil {
		return nil, hdr, err
	}
	p, ok := e.(IndexPersister)
	if !ok {
		return nil, hdr, fmt.Errorf("engine: %s: NewEmpty returned a non-persisting engine", f.Name)
	}
	if err := p.LoadIndex(ir); err != nil {
		return nil, hdr, ir.Wait(err)
	}
	if err := ir.Close(); err != nil {
		return nil, hdr, err
	}
	return e, hdr, nil
}

// saveBidirectional persists a bidirectional FM-index finder as two
// sections, "<prefix>fwd" and "<prefix>rev", one serialized FMIndex
// each. The fmindex and cpu engines share it (with their own prefixes),
// as does every sharded composite wrapping them.
func saveBidirectional(w *idxio.Writer, prefix string, f *smem.Bidirectional) error {
	pw := w.Prefixed(prefix)
	if err := pw.Section("fwd", f.Index.Fwd.Serialize); err != nil {
		return err
	}
	return pw.Section("rev", f.Index.Rev.Serialize)
}

// loadBidirectional reads saveBidirectional's sections back, checking
// the two indexes describe the same text (Rev indexes its reversal).
// Each index's tables are derived on r.Go while the next section is
// read, so the finder is ready once r.Wait returns nil.
func loadBidirectional(r *idxio.Reader, prefix string) (*smem.Bidirectional, error) {
	fwd, err := decodeIndex(r, prefix+"fwd")
	if err != nil {
		return nil, err
	}
	rev, err := decodeIndex(r, prefix+"rev")
	if err != nil {
		return nil, err
	}
	ft, rt := fwd.Text(), rev.Text()
	if len(ft) != len(rt) {
		return nil, fmt.Errorf("engine: sections %q/%q index texts of different lengths (%d, %d)",
			r.Name(prefix+"fwd"), r.Name(prefix+"rev"), len(ft), len(rt))
	}
	for i, b := range ft {
		if rt[len(rt)-1-i] != b {
			return nil, fmt.Errorf("engine: section %q does not index the reversal of %q (base %d)",
				r.Name(prefix+"rev"), r.Name(prefix+"fwd"), i)
		}
	}
	return smem.FromIndex(&fmindex.Bidirectional{Fwd: fwd, Rev: rev}), nil
}

// decodeIndex reads one serialized FMIndex section and starts deriving
// its tables on r.Go. Its errors name the section in full, as idxio's
// do.
func decodeIndex(r *idxio.Reader, name string) (*fmindex.FMIndex, error) {
	sec, err := r.Section(name)
	if err != nil {
		return nil, err
	}
	full := r.Name(name)
	f, err := fmindex.Decode(sec)
	if err != nil {
		return nil, fmt.Errorf("engine: section %q: %w", full, err)
	}
	r.Go(func() error {
		if err := f.Derive(); err != nil {
			return fmt.Errorf("engine: section %q: %w", full, err)
		}
		return nil
	})
	return f, nil
}
