package pipeline

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/nofreelunch/gadget-planner/internal/gadget"
)

func testCounts() map[gadget.JmpType]int {
	return map[gadget.JmpType]int{
		gadget.TypeReturn:  12,
		gadget.TypeUIJ:     5,
		gadget.TypeSyscall: 2,
	}
}

// listArtifacts returns every .art file under the cache directory.
func listArtifacts(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(p) == artSuffix {
			out = append(out, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDiskCrossProcess is the tentpole contract: a second store over the same
// directory — all in-memory state fresh, as in a new process — is served from
// disk without recomputing, and reports the original computation's cost.
func TestDiskCrossProcess(t *testing.T) {
	dir := t.TempDir()
	key := "count:bin:deadbeef|d:10"
	want := testCounts()

	d1, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewStore().WithDisk(d1)
	_, info1, err := DoCtx(context.Background(), s1, StageCount, key, func() (map[gadget.JmpType]int, error) {
		return testCounts(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info1.Hit {
		t.Fatal("cold request reported a hit")
	}
	if n := len(listArtifacts(t, dir)); n != 1 {
		t.Fatalf("cold compute persisted %d artifacts, want 1", n)
	}

	// "Second process": fresh store, fresh disk handle, same directory.
	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStore().WithDisk(d2)
	got, info2, err := DoCtx(context.Background(), s2, StageCount, key, func() (map[gadget.JmpType]int, error) {
		t.Error("compute ran despite persisted artifact")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Hit {
		t.Error("disk-served request did not report a hit")
	}
	if info2.Compute != info1.Compute || info2.AllocBytes != info1.AllocBytes {
		t.Errorf("disk hit cost %v/%d B, want original %v/%d B",
			info2.Compute, info2.AllocBytes, info1.Compute, info1.AllocBytes)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d classes, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("count[%v] = %d, want %d", k, got[k], n)
		}
	}
	stats := s2.Stats()[StageCount]
	if stats.DiskHits != 1 || stats.Misses != 0 {
		t.Errorf("second store: %d disk hits/%d misses, want 1/0", stats.DiskHits, stats.Misses)
	}
	if d2.Stats().BytesRead == 0 {
		t.Error("disk hit read zero bytes")
	}

	// Third request on the same store is a pure memory hit: the disk tier is
	// consulted only on in-memory misses.
	before := d2.Stats().BytesRead
	if _, info3, _ := DoCtx(context.Background(), s2, StageCount, key, func() (map[gadget.JmpType]int, error) {
		t.Error("compute ran on warm store")
		return nil, nil
	}); !info3.Hit {
		t.Error("warm request missed")
	}
	if d2.Stats().BytesRead != before {
		t.Error("memory hit touched the disk tier")
	}
}

// TestDiskEvictionOrder pins LRU ordering under a tight budget: when a write
// pushes the directory over MaxBytes, the least-recently-used artifact (by
// mtime) is removed first.
func TestDiskEvictionOrder(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 1000)
	fileSize := int64(len(buildArtifactFile(StageBuild, "key:a", payload, diskMeta{})))

	dir := t.TempDir()
	// Room for two artifacts and change; the third write must evict one.
	d, err := OpenDisk(dir, DiskOptions{MaxBytes: 2*fileSize + fileSize/2})
	if err != nil {
		t.Fatal(err)
	}

	d.put(StageBuild, "key:a", payload, diskMeta{})
	d.put(StageBuild, "key:b", payload, diskMeta{})
	// Age a and b so recency is unambiguous: a is LRU, b next, c freshest.
	now := time.Now()
	if err := os.Chtimes(d.path(StageBuild, "key:a"), now.Add(-3*time.Hour), now.Add(-3*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(d.path(StageBuild, "key:b"), now.Add(-2*time.Hour), now.Add(-2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	d.put(StageBuild, "key:c", payload, diskMeta{})

	if _, err := os.Stat(d.path(StageBuild, "key:a")); !os.IsNotExist(err) {
		t.Error("LRU artifact a survived eviction")
	}
	for _, k := range []string{"key:b", "key:c"} {
		if _, err := os.Stat(d.path(StageBuild, k)); err != nil {
			t.Errorf("artifact %s evicted out of order: %v", k, err)
		}
	}
	st := d.Stats()
	if st.Evictions != 1 || st.EvictedBytes != fileSize {
		t.Errorf("evictions = %d (%d B), want 1 (%d B)", st.Evictions, st.EvictedBytes, fileSize)
	}
	if st.SizeBytes > d.maxBytes {
		t.Errorf("size %d still over budget %d", st.SizeBytes, d.maxBytes)
	}

	// A read refreshes recency: touch b by reading it, then overflow again —
	// c (now oldest) must go, not b.
	if _, _, ok := d.get(StageBuild, "key:b"); !ok {
		t.Fatal("read-back of b failed")
	}
	if err := os.Chtimes(d.path(StageBuild, "key:c"), now.Add(-1*time.Hour), now.Add(-1*time.Hour)); err != nil {
		t.Fatal(err)
	}
	d.put(StageBuild, "key:d", payload, diskMeta{})
	if _, err := os.Stat(d.path(StageBuild, "key:c")); !os.IsNotExist(err) {
		t.Error("second eviction did not pick the new LRU artifact c")
	}
	if _, err := os.Stat(d.path(StageBuild, "key:b")); err != nil {
		t.Error("recently read artifact b was evicted")
	}
}

// TestDiskCorruptRecovery: corrupt and truncated artifacts degrade to a miss
// — the value is recomputed, the bad file is deleted, and the fresh bytes are
// re-persisted. Never an error.
func TestDiskCorruptRecovery(t *testing.T) {
	for name, mangle := range map[string]func([]byte) []byte{
		"bitflip":  func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		"truncate": func(b []byte) []byte { return b[:len(b)/3] },
		"empty":    func(b []byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			key := "count:bin:feedface|d:10"
			d1, err := OpenDisk(dir, DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			s1 := NewStore().WithDisk(d1)
			if _, _, err := DoCtx(context.Background(), s1, StageCount, key, func() (map[gadget.JmpType]int, error) {
				return testCounts(), nil
			}); err != nil {
				t.Fatal(err)
			}

			p := d1.path(StageCount, key)
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}

			d2, err := OpenDisk(dir, DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			s2 := NewStore().WithDisk(d2)
			computed := false
			got, info, err := DoCtx(context.Background(), s2, StageCount, key, func() (map[gadget.JmpType]int, error) {
				computed = true
				return testCounts(), nil
			})
			if err != nil {
				t.Fatalf("corrupt artifact surfaced as error: %v", err)
			}
			if !computed || info.Hit {
				t.Error("corrupt artifact was not treated as a miss")
			}
			if got[gadget.TypeReturn] != 12 {
				t.Error("recomputed value wrong")
			}
			if d2.Stats().Corrupt != 1 {
				t.Errorf("corrupt counter = %d, want 1", d2.Stats().Corrupt)
			}
			// The recompute re-persisted a valid artifact.
			fresh, err := os.ReadFile(p)
			if err != nil {
				t.Fatalf("artifact not re-persisted: %v", err)
			}
			if _, _, perr := parseArtifactFile(fresh, StageCount, key); perr != nil {
				t.Errorf("re-persisted artifact invalid: %v", perr)
			}
		})
	}
}

// TestDiskConcurrentWriters: many goroutines across two stores sharing one
// directory race on the same key. All observe the same value and the final
// file is a single valid artifact.
func TestDiskConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	key := "count:bin:cafebabe|d:10"
	stores := make([]*Store, 2)
	disks := make([]*Disk, 2)
	for i := range stores {
		d, err := OpenDisk(dir, DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		disks[i] = d
		stores[i] = NewStore().WithDisk(d)
	}

	const workers = 8
	var wg sync.WaitGroup
	results := make([]map[gadget.JmpType]int, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = DoCtx(context.Background(), stores[i%2], StageCount, key,
				func() (map[gadget.JmpType]int, error) { return testCounts(), nil })
		}(i)
	}
	wg.Wait()

	want := testCounts()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		for k, n := range want {
			if results[i][k] != n {
				t.Fatalf("worker %d saw count[%v] = %d, want %d", i, k, results[i][k], n)
			}
		}
	}

	arts := listArtifacts(t, dir)
	if len(arts) != 1 {
		t.Fatalf("%d artifacts on disk, want 1", len(arts))
	}
	data, err := os.ReadFile(arts[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, perr := parseArtifactFile(data, StageCount, key); perr != nil {
		t.Errorf("final artifact invalid after racing writers: %v", perr)
	}
	// No leftover claim or temp files.
	ents, _ := os.ReadDir(filepath.Dir(arts[0]))
	for _, e := range ents {
		if filepath.Ext(e.Name()) != artSuffix {
			t.Errorf("leftover write litter: %s", e.Name())
		}
	}
}

// TestDiskClaim: a live claim makes a writer skip (the holder persists the
// identical bytes); a stale claim from a crashed writer is broken.
func TestDiskClaim(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("payload")
	key := "key:claimed"
	p := d.path(StageBuild, key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	claim := p + claimSuffix
	if err := os.WriteFile(claim, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	d.put(StageBuild, key, payload, diskMeta{})
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Error("write proceeded under a live claim")
	}
	if d.Stats().WriteSkips != 1 {
		t.Errorf("write skips = %d, want 1", d.Stats().WriteSkips)
	}

	// Age the claim past the staleness TTL: it belongs to a crashed writer
	// and must be broken.
	old := time.Now().Add(-staleTTL - time.Minute)
	if err := os.Chtimes(claim, old, old); err != nil {
		t.Fatal(err)
	}
	d.put(StageBuild, key, payload, diskMeta{})
	if _, err := os.Stat(p); err != nil {
		t.Errorf("stale claim not broken: %v", err)
	}
}
