package main

import (
	"strings"
	"testing"
)

// TestQuickstart runs the example end to end: the obfuscated program runs,
// and an execve payload is found and re-verified in the emulator.
func TestQuickstart(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"program output: ", "verified execve payloads: ", "fired"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
