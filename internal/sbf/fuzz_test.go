package sbf_test

import (
	"crypto/sha256"
	"sort"
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// FuzzUnmarshalSBF feeds untrusted image bytes (what a gpd client or a -bin
// file supplies) to Unmarshal: it must never panic, and any image it
// accepts must re-marshal to bytes it accepts again with the same entry
// point, ISA tag, code size and section count, and its digest must be the
// SHA-256 of that re-marshal.
//
// The image seeds are crc builds cut to 64 bytes per section and 4
// symbols: valid images of every field kind, small enough that the fuzzer
// mutates them at full speed. Whole ~5 KB builds keep it minimizing each
// new input, at a few execs a second.
func FuzzUnmarshalSBF(f *testing.F) {
	crc, ok := benchprog.ByName("crc")
	if !ok {
		f.Fatal("crc benchmark missing")
	}
	for _, isaName := range []string{"x64", "rv64c"} {
		bin, err := benchprog.BuildISA(crc, nil, 42, isaName)
		if err != nil {
			f.Fatal(err)
		}
		img := smallImage(bin)
		if _, err := sbf.Unmarshal(img); err != nil {
			f.Fatalf("%s seed image rejected: %v", isaName, err)
		}
		f.Add(img)
	}
	f.Add([]byte("SBF2\x05\x00\x00")) // header truncated inside the ISA tag
	// An explicit x64 tag, which Marshal never writes (x64 images are
	// version 1): it must read back as the untagged default.
	f.Add([]byte("SBF2\x03\x00\x00\x00x64" + strings.Repeat("\x00", 16)))
	f.Fuzz(func(t *testing.T, data []byte) {
		bin, err := sbf.Unmarshal(data)
		if err != nil {
			return
		}
		img := bin.Marshal()
		if bin.Digest() != sha256.Sum256(img) {
			t.Fatal("digest is not the SHA-256 of the re-marshaled image")
		}
		again, err := sbf.Unmarshal(img)
		if err != nil {
			t.Fatalf("re-marshaled image rejected: %v", err)
		}
		if again.Entry != bin.Entry || again.ISA != bin.ISA ||
			again.CodeSize() != bin.CodeSize() || len(again.Sections) != len(bin.Sections) {
			t.Fatalf("round trip changed the image: entry %#x->%#x isa %q->%q code %d->%d sections %d->%d",
				bin.Entry, again.Entry, bin.ISA, again.ISA, bin.CodeSize(), again.CodeSize(),
				len(bin.Sections), len(again.Sections))
		}
	})
}

// smallImage marshals bin with every section cut to its first 64 bytes and
// only the 4 first symbols by name.
func smallImage(bin *sbf.Binary) []byte {
	small := sbf.New()
	small.Entry, small.ISA = bin.Entry, bin.ISA
	for _, s := range bin.Sections {
		s.Data = s.Data[:min(len(s.Data), 64)]
		small.AddSection(s)
	}
	names := make([]string, 0, len(bin.Symbols))
	for n := range bin.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names[:min(len(names), 4)] {
		small.Symbols[n] = bin.Symbols[n]
	}
	return small.Marshal()
}
