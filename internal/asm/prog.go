package asm

import "fmt"

// prog is the state and bookkeeping both one-pass assemblers share: the
// code buffer, the labels, and the fixups of type F that Assemble patches.
type prog[F any] struct {
	base   uint64
	code   []byte
	labels map[string]uint64
	fixups []F

	// line is the source line the text front end is assembling; errors
	// met on it carry an "asm: line N:" prefix.
	line int

	// err is the first error met while appending; errFix is how many
	// fixups precede it, so Assemble reports errors in program order.
	err    error
	errFix int
}

func newProg[F any](base uint64) prog[F] {
	return prog[F]{base: base, labels: make(map[string]uint64, 16)}
}

// pc is the address of the next appended byte.
func (p *prog[F]) pc() uint64 { return p.base + uint64(len(p.code)) }

// fail records err unless an earlier error is already recorded.
func (p *prog[F]) fail(err error) {
	if p.err == nil {
		p.err, p.errFix = err, len(p.fixups)
	}
}

// Label defines a label at the current position.
func (p *prog[F]) Label(name string) {
	if _, dup := p.labels[name]; dup {
		p.fail(errorf(p.line, "duplicate label %q", name))
		return
	}
	p.labels[name] = p.pc()
}

// Bytes appends literal data bytes.
func (p *prog[F]) Bytes(b []byte) { p.code = append(p.code, b...) }

// assemble adds the extern symbols that no program label shadows, patches
// every fixup, and returns the code, reporting the first error in program
// order.
func (p *prog[F]) assemble(extern map[string]uint64, patch func(*F) error) (*Result, error) {
	for name, addr := range extern {
		if _, ok := p.labels[name]; !ok {
			p.labels[name] = addr
		}
	}
	for i := range p.fixups {
		if p.err != nil && i == p.errFix {
			return nil, p.err
		}
		if err := patch(&p.fixups[i]); err != nil {
			return nil, err
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	return &Result{Code: p.code, Labels: p.labels}, nil
}

// errorf builds an error located at a source line, or at none.
func errorf(line int, format string, args ...any) error {
	if line > 0 {
		return fmt.Errorf("asm: line %d: "+format, append([]any{line}, args...)...)
	}
	return fmt.Errorf("asm: "+format, args...)
}
