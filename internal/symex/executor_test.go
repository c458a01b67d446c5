package symex

import (
	"reflect"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// TestExecutorMatchesExec pins a reused Executor against a fresh Executor
// per path on paths exercising every Effect collection — register writes,
// stack writes and inputs, memory accesses, path conditions, indirect-jump
// next-RIP — plus an unsupported path, interleaved so scratch reuse after
// both success and failure is covered. Both run against the same builder,
// so intern-equal effects are DeepEqual down to node pointers.
func TestExecutorMatchesExec(t *testing.T) {
	srcs := []string{
		"pop rdi; ret",
		"pop rbp; mov edi, 0x601030; jmp rax",
		"mov rbx, [rsp]; push rax; ret",
		"cmp rdx, rbx; jne 0x1010; pop rbx; ret",
		"mov [rax], rcx; call rdx",
		"cqo; idiv rbx; ret", // unsupported: both sides must error
		"xchg rax, rsp; ret",
		"pop rax; syscall",
	}
	b := expr.NewBuilder()
	ex := NewExecutorISA(b, isa.X64)
	// Two rounds: round two proves a used executor resets cleanly.
	for round := 0; round < 2; round++ {
		for _, src := range srcs {
			steps := decodeSteps(t, src)
			want, werr := execFresh(b, steps)
			got, gerr := ex.Exec(steps)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("round %d %q: fresh err=%v, reused err=%v", round, src, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round %d %q: effects differ\n fresh:  %+v\n reused: %+v", round, src, want, got)
			}
		}
	}
}

// TestExecutorEffectsAreIndependent verifies that effects returned by a
// reused executor do not alias its scratch: a later run must not mutate an
// earlier run's result.
func TestExecutorEffectsAreIndependent(t *testing.T) {
	b := expr.NewBuilder()
	ex := NewExecutorISA(b, isa.X64)
	steps := decodeSteps(t, "cmp rdx, rbx; jne 0x1010; pop rbx; pop rdi; ret")
	first, err := ex.Exec(steps)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := *first
	snapConds := append([]*expr.Node(nil), first.Conds...)
	if _, err := ex.Exec(decodeSteps(t, "push rax; push rbx; mov rcx, [rsp]; ret")); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Conds, snapConds) {
		t.Error("reuse mutated an earlier effect's Conds")
	}
	if first.StackDelta != snapshot.StackDelta || first.End != snapshot.End ||
		first.NextRIP != snapshot.NextRIP {
		t.Error("reuse mutated an earlier effect's scalars")
	}
}
