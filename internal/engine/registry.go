package engine

import (
	"fmt"
	"io"
	"strings"

	"casa/internal/dna"
	"casa/internal/smem"
)

// Factory describes one registered engine: how to construct it over a
// reference and how to present it to users.
type Factory struct {
	// Name is the canonical registry name ("casa", "ert", ...).
	Name string

	// Aliases are alternative names resolving to this factory.
	Aliases []string

	// Description is the one-line summary `-engine list` prints.
	Description string

	// Golden marks the definition-based oracle: exact by construction
	// but far too slow to benchmark, so harnesses that measure (rather
	// than validate) skip it.
	Golden bool

	// New constructs an engine over ref with the given options.
	New func(ref dna.Sequence, opt Options) (Engine, error)

	// NewEmpty constructs an unbound engine instance for LoadIndex to
	// fill from a serialized index; the returned engine must implement
	// IndexPersister. nil marks an engine that does not persist — cheap
	// to rebuild from FASTA (brute, and the table engines whose tables
	// build in one linear pass); TestIndexPersistenceCoverage documents
	// each excuse.
	NewEmpty func(opt Options) (Engine, error)
}

var (
	factories []Factory
	byName    = map[string]*Factory{}
)

// Register adds a factory to the registry. It is meant to be called from
// init (the registry is not locked) and panics on a duplicate name or
// alias — both are programming errors.
func Register(f Factory) {
	if f.Name == "" || f.New == nil {
		panic("engine: Register needs a name and a constructor")
	}
	factories = append(factories, f)
	p := &factories[len(factories)-1]
	for _, name := range append([]string{f.Name}, f.Aliases...) {
		if _, dup := byName[name]; dup {
			panic(fmt.Sprintf("engine: duplicate registration of %q", name))
		}
		byName[name] = p
	}
}

// Lookup resolves a name or alias to its factory.
func Lookup(name string) (Factory, bool) {
	f, ok := byName[name]
	if !ok {
		return Factory{}, false
	}
	return *f, true
}

// List returns every registered factory in registration order (the
// benchmark's row order and the conformance harness's iteration order).
func List() []Factory {
	return append([]Factory(nil), factories...)
}

// Names returns the canonical engine names in registration order.
func Names() []string {
	names := make([]string, len(factories))
	for i, f := range factories {
		names[i] = f.Name
	}
	return names
}

// New constructs the named engine over ref. Unknown names report the
// registry's valid names, so every consumer gives the same guidance.
func New(name string, ref dna.Sequence, opt Options) (Engine, error) {
	f, ok := byName[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return f.New(ref, opt)
}

// Build constructs the named engine and unwraps it to its concrete type
// (e.g. Build[*core.Accelerator]("casa", ...)), for callers needing the
// native API behind the registry's construction path.
func Build[T any](name string, ref dna.Sequence, opt Options) (T, error) {
	var zero T
	e, err := New(name, ref, opt)
	if err != nil {
		return zero, err
	}
	u, ok := e.(Unwrapper)
	if !ok {
		return zero, fmt.Errorf("engine: %s does not expose a concrete implementation", name)
	}
	t, ok := u.Unwrap().(T)
	if !ok {
		return zero, fmt.Errorf("engine: %s unwraps to %T, not %T", name, u.Unwrap(), zero)
	}
	return t, nil
}

// WriteList prints the registry — one line per engine with its
// description and aliases — in registration order. The CLIs' `-engine
// list` shares it so every tool shows the same catalogue.
func WriteList(w io.Writer) {
	for _, f := range List() {
		alias := ""
		if len(f.Aliases) > 0 {
			alias = " (aliases: " + strings.Join(f.Aliases, ", ") + ")"
		}
		fmt.Fprintf(w, "%-10s %s%s\n", f.Name, f.Description, alias)
	}
}

// typedActs converts the type-erased shard activities back to one
// engine's concrete activity type for its Reduce.
func typedActs[A any](acts []Activity) []A {
	out := make([]A, len(acts))
	for i, a := range acts {
		out[i] = a.(A)
	}
	return out
}

// activitySeeds implements Engine.Seeds from typed activities: strands
// reads one activity's per-read forward and reverse-complement SMEM sets
// (rev nil for a forward-strand engine), taken in shard order.
func activitySeeds[A any](acts []Activity, strands func(A) (fwd, rev [][]smem.Match)) []Seeds {
	n := 0
	for _, a := range acts {
		fwd, _ := strands(a.(A))
		n += len(fwd)
	}
	out := make([]Seeds, 0, n)
	for _, a := range acts {
		fwd, rev := strands(a.(A))
		for i, ms := range fwd {
			s := Seeds{Forward: ms}
			if rev != nil {
				s.Reverse = rev[i]
			}
			out = append(out, s)
		}
	}
	return out
}
