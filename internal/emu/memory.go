// Package emu implements a concrete emulator for the isa backends. Load
// boots an SBF binary; the machine enforces page permissions and models the
// Linux syscalls the runtime and attack goals use, which lets generated
// code-reuse payloads be validated end-to-end: inject the payload, run the
// victim, observe the execve.
package emu

import "fmt"

// PageSize is the emulator's memory page granularity.
const PageSize = 4096

// Perm is a page permission bitmask (same bit meanings as sbf.SectionFlags).
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// MemFault describes an invalid memory access.
type MemFault struct {
	Addr uint64
	Op   string // "read", "write", "exec"
}

func (e *MemFault) Error() string {
	return fmt.Sprintf("emu: %s fault at %#x", e.Op, e.Addr)
}

// A page is one PageSize span of memory and its permissions. A shared page
// is read by many address spaces at once: a page of a binary's loaded
// image, or a zero page. The package never changes a shared page; an
// address space that would change one first copies it into its own map
// (own).
type page struct {
	data   [PageSize]byte
	perm   Perm
	shared bool
}

// zeroPages holds one shared zero-filled page per permission: Map points a
// new page at the one of its permission, so untouched pages of a large
// stack or mapping cost no memory.
var zeroPages = func() (z [PermRead | PermWrite | PermExec + 1]*page) {
	for perm := range z {
		z[perm] = &page{perm: Perm(perm), shared: true}
	}
	return z
}()

// Memory is a sparse, paged address space.
type Memory struct {
	pages map[uint64]*page

	// One-entry page cache: the interpreter's memory traffic is heavily
	// concentrated (current stack page, current code page).
	lastNum uint64
	last    *page

	// codeGen increments whenever executable bytes are written, so decoded-
	// instruction caches can invalidate (self-modifying code).
	codeGen uint64
	// permGen increments whenever a mapped page's permission changes, so
	// decoded-instruction caches know when to re-check executability
	// (mprotect).
	permGen uint64
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// put makes pg page num, keeping the one-entry cache current.
func (m *Memory) put(num uint64, pg *page) {
	m.pages[num] = pg
	if m.lastNum == num {
		m.last = pg
	}
}

// own returns page num, first replacing it with a private copy if it is
// shared, so the caller may change it.
func (m *Memory) own(num uint64, pg *page) *page {
	if pg.shared {
		pg = &page{data: pg.data, perm: pg.perm}
		m.put(num, pg)
	}
	return pg
}

// setPerm gives page num the permission perm. A zero page is swapped for
// the zero page of the new permission; any other shared page is copied.
// It is the one path by which a mapped page's permission changes.
func (m *Memory) setPerm(num uint64, pg *page, perm Perm) {
	if pg.perm == perm {
		return
	}
	m.permGen++
	if pg == zeroPages[pg.perm] {
		m.put(num, zeroPages[perm])
	} else {
		m.own(num, pg).perm = perm
	}
}

// Map creates (or re-permissions) pages covering [addr, addr+size). A new
// page reads as zeros.
func (m *Memory) Map(addr, size uint64, perm Perm) {
	perm &= PermRead | PermWrite | PermExec
	first := addr / PageSize
	last := (addr + size + PageSize - 1) / PageSize
	for p := first; p < last; p++ {
		if pg, ok := m.pages[p]; ok {
			m.setPerm(p, pg, perm)
		} else {
			m.put(p, zeroPages[perm])
		}
	}
}

// Protect changes permissions on pages covering [addr, addr+size) that are
// already mapped. It reports whether every page in the range was mapped.
func (m *Memory) Protect(addr, size uint64, perm Perm) bool {
	perm &= PermRead | PermWrite | PermExec
	first := addr / PageSize
	last := (addr + size + PageSize - 1) / PageSize
	ok := true
	for p := first; p < last; p++ {
		pg, mapped := m.pages[p]
		if !mapped {
			ok = false
			continue
		}
		m.setPerm(p, pg, perm)
	}
	return ok
}

// PermAt returns the permissions of the page containing addr.
func (m *Memory) PermAt(addr uint64) Perm {
	pg, ok := m.pages[addr/PageSize]
	if !ok {
		return 0
	}
	return pg.perm
}

func (m *Memory) pageFor(addr uint64, need Perm, op string) (*page, error) {
	num := addr / PageSize
	pg := m.last
	if pg == nil || m.lastNum != num {
		var ok bool
		pg, ok = m.pages[num]
		if !ok {
			return nil, &MemFault{Addr: addr, Op: op}
		}
		m.lastNum, m.last = num, pg
	}
	if pg.perm&need != need {
		return nil, &MemFault{Addr: addr, Op: op}
	}
	return pg, nil
}

// writable returns the writable page containing addr, owned by m, and
// counts a write to executable bytes.
func (m *Memory) writable(addr uint64) (*page, error) {
	pg, err := m.pageFor(addr, PermWrite, "write")
	if err != nil {
		return nil, err
	}
	pg = m.own(addr/PageSize, pg)
	if pg.perm&PermExec != 0 {
		m.codeGen++
	}
	return pg, nil
}

// ReadBytes copies n bytes starting at addr into a new slice.
func (m *Memory) ReadBytes(addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := 0; i < n; {
		pg, err := m.pageFor(addr+uint64(i), PermRead, "read")
		if err != nil {
			return nil, err
		}
		off := int((addr + uint64(i)) % PageSize)
		c := copy(out[i:], pg.data[off:])
		i += c
	}
	return out, nil
}

// WriteBytes stores data starting at addr.
func (m *Memory) WriteBytes(addr uint64, data []byte) error {
	for i := 0; i < len(data); {
		pg, err := m.writable(addr + uint64(i))
		if err != nil {
			return err
		}
		off := int((addr + uint64(i)) % PageSize)
		c := copy(pg.data[off:], data[i:])
		i += c
	}
	return nil
}

// poke stores data ignoring page permissions, as a loader does; every page
// it touches must already be mapped.
func (m *Memory) poke(addr uint64, data []byte) {
	for i := 0; i < len(data); {
		a := addr + uint64(i)
		pg := m.own(a/PageSize, m.pages[a/PageSize])
		i += copy(pg.data[a%PageSize:], data[i:])
	}
}

// Read reads a little-endian value of size 1, 2, 4 or 8 bytes.
func (m *Memory) Read(addr uint64, size int) (uint64, error) {
	off := int(addr % PageSize)
	if off+size <= PageSize {
		// Fast path: the access stays inside one page.
		pg, err := m.pageFor(addr, PermRead, "read")
		if err != nil {
			return 0, err
		}
		var v uint64
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(pg.data[off+i])
		}
		return v, nil
	}
	b, err := m.ReadBytes(addr, size)
	if err != nil {
		return 0, err
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

// Write stores a little-endian value of size 1, 2, 4 or 8 bytes.
func (m *Memory) Write(addr uint64, v uint64, size int) error {
	off := int(addr % PageSize)
	if off+size <= PageSize {
		pg, err := m.writable(addr)
		if err != nil {
			return err
		}
		for i := 0; i < size; i++ {
			pg.data[off+i] = byte(v >> (8 * i))
		}
		return nil
	}
	b := make([]byte, size)
	for i := 0; i < size; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return m.WriteBytes(addr, b)
}

// FetchWindow returns up to n readable+executable bytes at addr for the
// instruction decoder.
func (m *Memory) FetchWindow(addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	got, err := m.fetchInto(out, addr)
	if err != nil {
		return nil, err
	}
	return out[:got], nil
}

// fetchInto fills buf with the executable bytes at addr, at most two page
// lookups for a buffer no longer than a page, and returns how many it
// filled. It faults only if the first byte is not executable; the window
// ends early where the next page is not.
func (m *Memory) fetchInto(buf []byte, addr uint64) (int, error) {
	n := 0
	for n < len(buf) {
		pg, err := m.pageFor(addr+uint64(n), PermExec, "exec")
		if err != nil {
			if n == 0 {
				return 0, err
			}
			break
		}
		n += copy(buf[n:], pg.data[(addr+uint64(n))%PageSize:])
	}
	return n, nil
}

// ReadCString reads a NUL-terminated string of at most max bytes.
func (m *Memory) ReadCString(addr uint64, max int) (string, error) {
	var out []byte
	for i := 0; i < max; i++ {
		b, err := m.ReadBytes(addr+uint64(i), 1)
		if err != nil {
			return "", err
		}
		if b[0] == 0 {
			return string(out), nil
		}
		out = append(out, b[0])
	}
	return string(out), nil
}
