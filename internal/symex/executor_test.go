package symex

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// TestExecutorMatchesExec pins a reused Executor against a fresh Executor
// per path on executorBodies, interleaved so scratch reuse after both
// success and failure is covered. Both run against the same builder,
// so intern-equal effects are DeepEqual down to node pointers.
// executorBodies are paths exercising every Effect collection — register
// writes, stack writes and inputs, memory accesses, path conditions,
// indirect-jump next-RIP — plus an unsupported path.
var executorBodies = []string{
	"pop rdi; ret",
	"pop rbp; mov edi, 0x601030; jmp rax",
	"mov rbx, [rsp]; push rax; ret",
	"cmp rdx, rbx; jne 0x1010; pop rbx; ret",
	"mov [rax], rcx; call rdx",
	"cqo; idiv rbx; ret", // unsupported: both sides must error
	"xchg rax, rsp; ret",
	"pop rax; syscall",
}

func TestExecutorMatchesExec(t *testing.T) {
	b := expr.NewBuilder()
	ex := NewExecutorISA(b, isa.X64)
	// Two rounds: round two proves a used executor resets cleanly.
	for round := 0; round < 2; round++ {
		for _, src := range executorBodies {
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

// forkBodies are paths through one or two conditional jumps whose state
// the two sides of a fork must not share: a stack slot written before the
// fork, then read and rewritten after it, stack inputs, controlled-memory
// accesses, an opaque flag (its variable is numbered along the path) and
// stack writes at the terminal.
var forkBodies = []string{
	"pop rax; cmp rax, rbx; je 0x1020; pop rdi; cmp rcx, 0; jne 0x1030; pop rsi; ret",
	"push rax; test rbx, rbx; js 0x1040; pop rdx; push rcx; pop rsi; ret",
	"mov [rax], rbx; cmp rdx, 1; jb 0x1000; mov rcx, [rax+8]; ret",
	"imul rax, rbx; jo 0x1000; imul rcx, rdx; jno 0x1000; pop rdi; jmp rax",
	"pop rbp; cmp rbp, 3; jg 0x1000; mov [rbp-8], rdi; push rsi; call rcx",
	"mov [rax], rbx; test rcx, rcx; jz 0x1000; mov rdx, [rax]; ret", // fails after the fork
}

// runFrom runs steps[k:] on the cursor: Advance up to the last step, then
// Finish.
func runFrom(ex *Executor, steps []Step, k int) (*Effect, error) {
	n := len(steps) - 1
	for i := k; i < n; i++ {
		if err := ex.Advance(&steps[i].Inst, steps[i].Taken); err != nil {
			return nil, err
		}
	}
	return ex.Finish(&steps[n].Inst, steps[n].Taken)
}

// sameResult fails the test unless a cursor run and a from-scratch Exec
// agree: both fail with the same message, or both succeed with effects
// DeepEqual down to node pointers.
func sameResult(t *testing.T, what string, got *Effect, gerr error, want *Effect, werr error) {
	t.Helper()
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s: Exec err=%v, cursor err=%v", what, werr, gerr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: effects differ\n Exec:   %+v\n cursor: %+v", what, want, got)
	}
}

// TestCursorMatchesExec pins the cursor against Exec. On every body, with
// a mark saved before each step k, it runs every assignment of branch
// directions to the conditional jumps from k on — the all-taken side
// first — restoring the mark before each, so a mark is restored after a
// Finish and after a failed Advance. One executor serves the whole test.
func TestCursorMatchesExec(t *testing.T) {
	b := expr.NewBuilder()
	ex := NewExecutorISA(b, isa.X64)
	var m Mark
	for _, src := range append(append([]string(nil), executorBodies...), forkBodies...) {
		steps := decodeSteps(t, src)
		for k := range steps {
			var forks []int
			for i := k; i < len(steps)-1; i++ {
				if steps[i].Inst.Op == isa.OpJcc {
					forks = append(forks, i)
				}
			}
			ex.Reset()
			var err error
			for i := 0; i < k && err == nil; i++ {
				err = ex.Advance(&steps[i].Inst, steps[i].Taken)
			}
			if err != nil {
				// The prefix itself is rejected, as Exec must find too.
				_, werr := execFresh(b, steps)
				sameResult(t, fmt.Sprintf("%q prefix %d", src, k), nil, err, nil, werr)
				continue
			}
			ex.Save(&m)
			for mask := 1<<len(forks) - 1; mask >= 0; mask-- {
				path := append([]Step(nil), steps...)
				for j, i := range forks {
					path[i].Taken = mask&(1<<j) != 0
				}
				ex.Restore(&m)
				got, gerr := runFrom(ex, path, k)
				want, werr := execFresh(b, path)
				sameResult(t, fmt.Sprintf("%q mark %d taken %b", src, k, mask), got, gerr, want, werr)
			}
		}
	}
}

// TestCursorRestoresSiblings runs fork siblings the way extraction does:
// one mark before the fork, then each side with each continuation — one
// rejected mid-path, one rejected at its terminal, one supported — each
// checked against Exec of the whole path.
func TestCursorRestoresSiblings(t *testing.T) {
	b := expr.NewBuilder()
	ex := NewExecutorISA(b, isa.X64)
	prefix := decodeSteps(t, "pop rax; mov [rsp+8], rax; cmp rax, rcx; jae 0x1000")
	suffixes := []struct {
		src      string
		rejected bool
	}{
		{"mov [rbx], rax; mov rdx, [rbx]; ret", true}, // by Advance
		{"pop rdi; mov rsp, rdi; ret", true},          // by Finish
		{"mov rsi, [rsp+8]; mov [rsp+8], rdi; pop rdi; ret", false},
		{"mov [rsp], rdx; pop rbx; jmp rbx", false},
	}
	var m Mark
	ex.Reset()
	for i := range prefix[:len(prefix)-1] {
		if err := ex.Advance(&prefix[i].Inst, false); err != nil {
			t.Fatal(err)
		}
	}
	ex.Save(&m)
	for _, taken := range []bool{true, false} {
		for _, sfx := range suffixes {
			path := append(append([]Step(nil), prefix...), decodeSteps(t, sfx.src)...)
			path[len(prefix)-1].Taken = taken
			ex.Restore(&m)
			got, gerr := runFrom(ex, path, len(prefix)-1)
			want, werr := execFresh(b, path)
			what := fmt.Sprintf("taken %v, %q", taken, sfx.src)
			sameResult(t, what, got, gerr, want, werr)
			if (gerr != nil) != sfx.rejected {
				t.Fatalf("%s: err=%v, want rejected=%v", what, gerr, sfx.rejected)
			}
		}
	}
}
