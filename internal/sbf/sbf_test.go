package sbf

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"testing/quick"
)

func sample() *Binary {
	b := New()
	b.Entry = 0x401000
	b.AddSection(Section{Name: ".data", Addr: 0x601000, Flags: FlagRead | FlagWrite, Data: []byte{1, 2, 3}})
	b.AddSection(Section{Name: ".text", Addr: 0x401000, Flags: FlagRead | FlagExec, Data: []byte{0x5F, 0xC3}})
	b.Symbols["main"] = 0x401000
	b.Symbols["buf"] = 0x601000
	return b
}

func TestRoundTrip(t *testing.T) {
	b := sample()
	img := b.Marshal()
	got, err := Unmarshal(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entry != b.Entry {
		t.Errorf("entry = %#x", got.Entry)
	}
	if len(got.Sections) != 2 {
		t.Fatalf("sections = %d", len(got.Sections))
	}
	// Sections sorted by address.
	if got.Sections[0].Name != ".text" || got.Sections[1].Name != ".data" {
		t.Errorf("section order: %v %v", got.Sections[0].Name, got.Sections[1].Name)
	}
	if !bytes.Equal(got.Section(".text").Data, []byte{0x5F, 0xC3}) {
		t.Errorf("text data = %x", got.Section(".text").Data)
	}
	if v, ok := got.Symbol("buf"); !ok || v != 0x601000 {
		t.Errorf("buf = %#x, %v", v, ok)
	}
}

// TestCanonicalDigestSkipsMarshal pins that Unmarshal memoizes the digest
// of an image Marshal would write back byte for byte, so its Digest
// allocates nothing, while an image with an explicit x64 tag is digested
// from its re-marshal. Both digests are the canonical bytes' SHA-256.
func TestCanonicalDigestSkipsMarshal(t *testing.T) {
	img := sample().Marshal()
	tagged := append([]byte("SBF2\x03\x00\x00\x00x64"), img[len(Magic):]...)
	for _, c := range []struct {
		name     string
		data     []byte
		marshals bool
	}{{"canonical", img, false}, {"x64-tag", tagged, true}} {
		const runs = 10
		bins := make([]*Binary, runs+1) // AllocsPerRun adds a warm-up call
		for i := range bins {
			var err error
			if bins[i], err = Unmarshal(c.data); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			bins[next].Digest()
			next++
		})
		if (allocs > 0) != c.marshals {
			t.Errorf("%s: Digest allocates %.0f times, want marshaling %v", c.name, allocs, c.marshals)
		}
		if bins[0].Digest() != sha256.Sum256(img) {
			t.Errorf("%s: digest is not the SHA-256 of the canonical image", c.name)
		}
	}
}

func TestSectionQueries(t *testing.T) {
	b := sample()
	if s := b.SectionAt(0x401001); s == nil || s.Name != ".text" {
		t.Errorf("SectionAt(0x401001) = %v", s)
	}
	if s := b.SectionAt(0x401002); s != nil {
		t.Errorf("SectionAt(end) = %v, want nil", s)
	}
	ex := b.ExecSections()
	if len(ex) != 1 || ex[0].Name != ".text" {
		t.Errorf("ExecSections = %v", ex)
	}
	if b.CodeSize() != 2 {
		t.Errorf("CodeSize = %d", b.CodeSize())
	}
	if b.Section(".bss") != nil {
		t.Error("Section(.bss) should be nil")
	}
}

func TestFlagsString(t *testing.T) {
	if got := (FlagRead | FlagExec).String(); got != "r-x" {
		t.Errorf("flags = %q", got)
	}
	if got := SectionFlags(0).String(); got != "---" {
		t.Errorf("flags = %q", got)
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	img := sample().Marshal()
	// Any truncation must error, never panic.
	for n := 0; n < len(img); n += 3 {
		if _, err := Unmarshal(img[:n]); err == nil {
			t.Fatalf("Unmarshal of %d-byte prefix succeeded", n)
		}
	}
	bad := append([]byte{}, img...)
	bad[0] = 'X'
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestQuickRoundTripSymbols(t *testing.T) {
	f := func(names []string, vals []uint64) bool {
		b := New()
		for i, n := range names {
			if i < len(vals) {
				b.Symbols[n] = vals[i]
			}
		}
		got, err := Unmarshal(b.Marshal())
		if err != nil {
			return false
		}
		if len(got.Symbols) != len(b.Symbols) {
			return false
		}
		for n, v := range b.Symbols {
			if got.Symbols[n] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
