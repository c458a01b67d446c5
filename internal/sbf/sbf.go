// Package sbf defines the Simple Binary Format, the executable container
// produced by the MiniC toolchain and consumed by the gadget tooling and the
// emulator. It plays the role ELF plays in the original study: sections with
// permissions, a symbol table, and an entry point.
package sbf

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Magic identifies an SBF image. Version 1 images are always x86-64;
// version 2 adds an ISA tag after the magic. Marshal emits version 1 for
// x86-64 binaries so pre-multi-ISA images and their content hashes are
// byte-identical.
var Magic = [4]byte{'S', 'B', 'F', '1'}

// Magic2 identifies an SBF image carrying an explicit ISA tag.
var Magic2 = [4]byte{'S', 'B', 'F', '2'}

// SectionFlags describe section permissions.
type SectionFlags uint8

// Section permission bits.
const (
	FlagRead  SectionFlags = 1 << iota // readable
	FlagWrite                          // writable
	FlagExec                           // executable
)

// String renders the flags as an "rwx" triple.
func (f SectionFlags) String() string {
	b := []byte("---")
	if f&FlagRead != 0 {
		b[0] = 'r'
	}
	if f&FlagWrite != 0 {
		b[1] = 'w'
	}
	if f&FlagExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Section is a named, mapped region of the binary.
type Section struct {
	Name  string
	Addr  uint64
	Flags SectionFlags
	Data  []byte
}

// End returns the address one past the section's last byte.
func (s *Section) End() uint64 { return s.Addr + uint64(len(s.Data)) }

// Contains reports whether addr falls inside the section.
func (s *Section) Contains(addr uint64) bool { return addr >= s.Addr && addr < s.End() }

// Binary is a loaded or under-construction SBF image.
type Binary struct {
	Entry    uint64
	Sections []Section
	Symbols  map[string]uint64
	// ISA names the instruction set the executable sections hold ("x64",
	// "rv64"). Empty means x86-64: images that predate multi-ISA support
	// carry no tag and are read back with ISA == "".
	ISA string

	digestOnce sync.Once
	digest     [sha256.Size]byte

	imageOnce sync.Once
	image     any
}

// New returns an empty binary.
func New() *Binary {
	return &Binary{Symbols: make(map[string]uint64)}
}

// AddSection appends a section, keeping sections sorted by address.
func (b *Binary) AddSection(s Section) {
	b.Sections = append(b.Sections, s)
	sort.Slice(b.Sections, func(i, j int) bool { return b.Sections[i].Addr < b.Sections[j].Addr })
}

// Section returns the named section, or nil.
func (b *Binary) Section(name string) *Section {
	for i := range b.Sections {
		if b.Sections[i].Name == name {
			return &b.Sections[i]
		}
	}
	return nil
}

// SectionAt returns the section containing addr, or nil.
func (b *Binary) SectionAt(addr uint64) *Section {
	for i := range b.Sections {
		if b.Sections[i].Contains(addr) {
			return &b.Sections[i]
		}
	}
	return nil
}

// ExecSections returns the executable sections in address order.
func (b *Binary) ExecSections() []*Section {
	var out []*Section
	for i := range b.Sections {
		if b.Sections[i].Flags&FlagExec != 0 {
			out = append(out, &b.Sections[i])
		}
	}
	return out
}

// CodeSize returns the total executable byte count.
func (b *Binary) CodeSize() int {
	n := 0
	for _, s := range b.ExecSections() {
		n += len(s.Data)
	}
	return n
}

// Symbol resolves a symbol name to its address.
func (b *Binary) Symbol(name string) (uint64, bool) {
	v, ok := b.Symbols[name]
	return v, ok
}

// errCorrupt wraps deserialization failures.
var errCorrupt = errors.New("sbf: corrupt image")

// Digest returns the SHA-256 of the serialized binary. It is computed on
// first use and kept with the binary, so it lives exactly as long as the
// binary does; a binary must not change once it has been digested or
// loaded (Image).
func (b *Binary) Digest() [sha256.Size]byte {
	b.digestOnce.Do(func() { b.digest = sha256.Sum256(b.Marshal()) })
	return b.digest
}

// Image returns the emulator's loaded image of the binary: build runs on
// first use and its result is kept with the binary, as the digest is, so
// every machine booted from the binary shares it and it lives exactly as
// long as the binary does. Only the first call's build runs.
func (b *Binary) Image(build func(*Binary) any) any {
	b.imageOnce.Do(func() { b.image = build(b) })
	return b.image
}

// Marshal serializes the binary.
func (b *Binary) Marshal() []byte {
	var out []byte
	if b.ISA == "" || b.ISA == "x64" {
		out = append(out, Magic[:]...)
	} else {
		out = append(out, Magic2[:]...)
		out = appendString(out, b.ISA)
	}
	out = binary.LittleEndian.AppendUint64(out, b.Entry)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Sections)))
	for _, s := range b.Sections {
		out = appendString(out, s.Name)
		out = binary.LittleEndian.AppendUint64(out, s.Addr)
		out = append(out, byte(s.Flags))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s.Data)))
		out = append(out, s.Data...)
	}
	names := make([]string, 0, len(b.Symbols))
	for n := range b.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(names)))
	for _, n := range names {
		out = appendString(out, n)
		out = binary.LittleEndian.AppendUint64(out, b.Symbols[n])
	}
	return out
}

// Unmarshal parses a serialized binary image. When data is already the
// encoding Marshal writes for the result, its SHA-256 becomes the binary's
// digest, so Digest need not re-marshal it.
func Unmarshal(data []byte) (*Binary, error) {
	r := reader{data: data}
	var magic [4]byte
	if err := r.bytes(magic[:]); err != nil {
		return nil, err
	}
	if magic != Magic && magic != Magic2 {
		return nil, fmt.Errorf("%w: bad magic %q", errCorrupt, magic)
	}
	b := New()
	var err error
	// canonical tracks whether Marshal would write data back byte for byte.
	canonical := true
	if magic == Magic2 {
		if b.ISA, err = r.str(); err != nil {
			return nil, err
		}
		// Marshal writes x64 images untagged (version 1), so an explicit
		// x64 tag reads back as the untagged default and round-trips.
		if b.ISA == "x64" {
			b.ISA = ""
		}
		canonical = b.ISA != ""
	}
	if b.Entry, err = r.u64(); err != nil {
		return nil, err
	}
	nSec, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nSec > 1<<16 {
		return nil, fmt.Errorf("%w: unreasonable section count %d", errCorrupt, nSec)
	}
	for i := uint32(0); i < nSec; i++ {
		var s Section
		if s.Name, err = r.str(); err != nil {
			return nil, err
		}
		if s.Addr, err = r.u64(); err != nil {
			return nil, err
		}
		fl, err := r.u8()
		if err != nil {
			return nil, err
		}
		s.Flags = SectionFlags(fl)
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		if int(n) > len(r.data)-r.pos {
			return nil, fmt.Errorf("%w: section %q overruns image", errCorrupt, s.Name)
		}
		s.Data = make([]byte, n)
		if err := r.bytes(s.Data); err != nil {
			return nil, err
		}
		// AddSection keeps sections in address order.
		if len(b.Sections) > 0 && s.Addr <= b.Sections[len(b.Sections)-1].Addr {
			canonical = false
		}
		b.AddSection(s)
	}
	nSym, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nSym > 1<<20 {
		return nil, fmt.Errorf("%w: unreasonable symbol count %d", errCorrupt, nSym)
	}
	prev := ""
	for i := uint32(0); i < nSym; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		v, err := r.u64()
		if err != nil {
			return nil, err
		}
		// Marshal writes each symbol once, in name order.
		if i > 0 && name <= prev {
			canonical = false
		}
		prev = name
		b.Symbols[name] = v
	}
	if canonical && r.pos == len(data) {
		b.digestOnce.Do(func() { b.digest = sha256.Sum256(data) })
	}
	return b, nil
}

func appendString(out []byte, s string) []byte {
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
	return append(out, s...)
}

type reader struct {
	data []byte
	pos  int
}

func (r *reader) bytes(dst []byte) error {
	if r.pos+len(dst) > len(r.data) {
		return fmt.Errorf("%w: truncated", errCorrupt)
	}
	copy(dst, r.data[r.pos:])
	r.pos += len(dst)
	return nil
}

func (r *reader) u8() (byte, error) {
	var b [1]byte
	err := r.bytes(b[:])
	return b[0], err
}

func (r *reader) u32() (uint32, error) {
	var b [4]byte
	if err := r.bytes(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (r *reader) u64() (uint64, error) {
	var b [8]byte
	if err := r.bytes(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if int(n) > len(r.data)-r.pos {
		return "", fmt.Errorf("%w: truncated string", errCorrupt)
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}
