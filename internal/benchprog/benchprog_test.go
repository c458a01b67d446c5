package benchprog

import (
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/codegen"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
)

// TestAllProgramsRunPlain compiles and executes every benchmark without
// obfuscation and sanity-checks the output.
func TestAllProgramsRunPlain(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			bin, err := BuildISA(p, nil, 0, "")
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if p.Name == "netperf" {
				p.Stdin = NetperfRequest([]byte("host,port"))
			}
			res, err := codegen.Run(bin, p.Stdin, 0)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Stdout == "" {
				t.Error("no output")
			}
			t.Logf("%s: %q exit=%d steps=%d text=%dB", p.Name,
				truncate(res.Stdout, 60), res.ExitCode, res.Steps, bin.CodeSize())
			if strings.Contains(res.Stdout, "UNSORTED") || strings.Contains(res.Stdout, "CORRUPT") {
				t.Errorf("self-check failed: %q", res.Stdout)
			}
		})
	}
}

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

// TestKnownOutputs pins outputs with externally verifiable values.
func TestKnownOutputs(t *testing.T) {
	want := map[string]string{
		"queens": "4\n",       // 6-queens solutions
		"primes": "168 997\n", // primes below 1000, largest prime
	}
	for name, expect := range want {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("program %s missing", name)
		}
		bin, err := BuildISA(p, nil, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		res, err := codegen.Run(bin, p.Stdin, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stdout != expect {
			t.Errorf("%s output = %q, want %q", name, res.Stdout, expect)
		}
	}
	// fibonacci: fib(40) iterative = 102334155, fib_rec(17) = 1597.
	p, _ := ByName("fibonacci")
	bin, err := BuildISA(p, nil, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := codegen.Run(bin, p.Stdin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stdout != "102334155 1597\n" {
		t.Errorf("fibonacci output = %q", res.Stdout)
	}
}

// TestObfuscatedMatchPlain builds every program under both presets and
// checks behavioural equivalence — the corpus-wide obfuscator validation.
func TestObfuscatedMatchPlain(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential test")
	}
	presets := map[string][]obfuscate.Pass{
		"llvm-obf": obfuscate.LLVMObf(),
		"tigress":  obfuscate.Tigress(),
	}
	for _, p := range All() {
		p := p
		if p.Name == "netperf" {
			p.Stdin = NetperfRequest([]byte("host,port"))
		}
		plainBin, err := BuildISA(p, nil, 0, "")
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		plain, err := codegen.Run(plainBin, p.Stdin, 0)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for preset, passes := range presets {
			t.Run(p.Name+"/"+preset, func(t *testing.T) {
				bin, err := BuildISA(p, passes, 42, "")
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				res, err := codegen.Run(bin, p.Stdin, 0)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if res.Stdout != plain.Stdout || res.ExitCode != plain.ExitCode {
					t.Errorf("behaviour mismatch:\nplain %q exit %d\nobf   %q exit %d",
						plain.Stdout, plain.ExitCode, res.Stdout, res.ExitCode)
				}
				if bin.CodeSize() <= plainBin.CodeSize() {
					t.Errorf("obfuscation did not grow code: %d vs %d",
						bin.CodeSize(), plainBin.CodeSize())
				}
			})
		}
	}
}

// TestNetperfOverflowSmashesStack demonstrates the vulnerability: a long
// option payload must corrupt the return address (crash on a controlled
// address), proving the write primitive the exploit uses.
func TestNetperfOverflowSmashesStack(t *testing.T) {
	p := Netperf()
	bin, err := BuildISA(p, nil, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	// Benign input works.
	p.Stdin = NetperfRequest([]byte("localhost,9000"))
	res, err := codegen.Run(bin, p.Stdin, 0)
	if err != nil || !strings.Contains(res.Stdout, "option handled") {
		t.Fatalf("benign run failed: %v %q", err, res)
	}
	// Overflow: fill far past the 32-byte buffers with a recognizable
	// pattern; execution must divert to 0x4242424242424242-ish memory.
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = 0x42
	}
	p.Stdin = NetperfRequest(payload)
	_, err = codegen.Run(bin, p.Stdin, 0)
	if err == nil {
		t.Fatal("overflow did not crash")
	}
	if !strings.Contains(err.Error(), "fault") && !strings.Contains(err.Error(), "decode") {
		t.Fatalf("unexpected failure mode: %v", err)
	}
	t.Logf("controlled crash: %v", err)
}

func TestByNameLookup(t *testing.T) {
	if _, ok := ByName("queens"); !ok {
		t.Error("queens missing")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("found nonexistent program")
	}
	if len(Benchmarks()) != 12 {
		t.Errorf("benchmark count = %d, want 12", len(Benchmarks()))
	}
	if len(Spec()) != 4 {
		t.Errorf("spec count = %d, want 4", len(Spec()))
	}
}
