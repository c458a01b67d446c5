package emu

import (
	"bytes"
)

// Linux x86-64 syscall numbers used by the toolchain and by attack goals.
const (
	SysRead     = 0
	SysWrite    = 1
	SysMmap     = 9
	SysMprotect = 10
	SysMremap   = 25
	SysGetpid   = 39
	SysExecve   = 59
	SysExit     = 60
	SysExitGrp  = 231
)

// SyscallEvent records one syscall observed by the OS model.
type SyscallEvent struct {
	Num  uint64
	Args [6]uint64
	Path string // resolved first-argument string for execve
}

// OS is the machine's syscall model: a tiny Linux sufficient to run the
// MiniC runtime and to observe attack payloads firing.
//
// An execve stops execution, mirroring the real system where the
// victim image is replaced; mprotect and mmap are applied to the emulated
// address space and recorded.
type OS struct {
	Stdout   bytes.Buffer
	Stdin    bytes.Reader
	ExitCode uint64
	Events   []SyscallEvent

	mmapNext uint64
}

// EventFor returns the first recorded event with the given syscall number.
func (o *OS) EventFor(num uint64) *SyscallEvent {
	for i := range o.Events {
		if o.Events[i].Num == num {
			return &o.Events[i]
		}
	}
	return nil
}

// syscall executes the machine's pending syscall and reports whether it
// ends the run. Register conventions come from the machine's backend ABI;
// syscall numbers use the x86-64 Linux numbering on every backend (the
// RISC-V toolchain emits the same numbers, keeping goal definitions and the
// OS model ISA-independent).
func (o *OS) syscall(m *Machine) bool {
	abi := m.abi
	num := m.Regs[abi.Num]
	ev := SyscallEvent{Num: num}
	for i, r := range abi.Args {
		if i >= len(ev.Args) {
			break
		}
		ev.Args[i] = m.Regs[r]
	}

	switch num {
	case SysWrite:
		fd, buf, n := ev.Args[0], ev.Args[1], ev.Args[2]
		data, err := m.Mem.ReadBytes(buf, int(n))
		if err != nil {
			m.Regs[abi.Ret] = uint64(^uint64(13) + 1) // -EACCES
			break
		}
		if fd == 1 || fd == 2 {
			o.Stdout.Write(data)
		}
		m.Regs[abi.Ret] = n

	case SysRead:
		buf, n := ev.Args[1], ev.Args[2]
		tmp := make([]byte, n)
		read, _ := o.Stdin.Read(tmp)
		if read > 0 {
			if err := m.Mem.WriteBytes(buf, tmp[:read]); err != nil {
				m.Regs[abi.Ret] = uint64(^uint64(13) + 1)
				break
			}
		}
		m.Regs[abi.Ret] = uint64(read)

	case SysMmap:
		length, prot := ev.Args[1], ev.Args[2]
		addr := ev.Args[0]
		if addr == 0 {
			addr = o.mmapNext
			o.mmapNext += (length + PageSize) &^ (PageSize - 1)
		}
		m.Mem.Map(addr, length, protToPerm(prot))
		m.Regs[abi.Ret] = addr

	case SysMprotect:
		addr, length, prot := ev.Args[0], ev.Args[1], ev.Args[2]
		if m.Mem.Protect(addr, length, protToPerm(prot)) {
			m.Regs[abi.Ret] = 0
		} else {
			m.Regs[abi.Ret] = uint64(^uint64(12) + 1) // -ENOMEM
		}

	case SysMremap:
		m.Regs[abi.Ret] = ev.Args[0]

	case SysGetpid:
		m.Regs[abi.Ret] = 4242

	case SysExecve:
		if path, err := m.Mem.ReadCString(ev.Args[0], 256); err == nil {
			ev.Path = path
		}
		o.Events = append(o.Events, ev)
		return true

	case SysExit, SysExitGrp:
		o.ExitCode = ev.Args[0]
		o.Events = append(o.Events, ev)
		return true

	default:
		m.Regs[abi.Ret] = uint64(^uint64(38) + 1) // -ENOSYS
	}

	o.Events = append(o.Events, ev)
	return false
}

func protToPerm(prot uint64) Perm {
	var p Perm
	if prot&1 != 0 {
		p |= PermRead
	}
	if prot&2 != 0 {
		p |= PermWrite
	}
	if prot&4 != 0 {
		p |= PermExec
	}
	return p
}
