package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Disk is the store's persistent tier: stage artifacts serialized by
// codec.go into content-addressed files that outlive the process, so a cold
// store in a new process is served by an earlier process's computations.
//
// Layout: <dir>/<stage>/<sha256(key)[:16] hex>.art. The full artifact key is
// stored (and verified) inside the file, so a truncated hash collision reads
// as a miss rather than the wrong artifact. Invalidation is purely by
// fingerprint: keys chain every input that determines an artifact, so a
// changed input addresses a different file and stale entries simply age out
// under the LRU budget.
//
// Crash- and concurrency-safety: writers materialize into a private
// .tmp.<pid> file and atomically rename it over the final path; concurrent
// same-key writers (other goroutines, other processes) are serialized by an
// O_EXCL .claim file — losers skip the write, since the winner is persisting
// the identical deterministic bytes. Readers validate a whole-file SHA-256
// trailer; corrupt or truncated artifacts are deleted and degrade to a
// cache miss, never an error. Claims and temp files orphaned by a crash are
// swept once they exceed a staleness TTL.
type Disk struct {
	dir      string
	maxBytes int64

	// size is this handle's running estimate of total artifact bytes; the
	// evictor rescans the directory, so cross-process drift self-corrects.
	size    atomic.Int64
	evictMu sync.Mutex

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	evictions    atomic.Int64
	evictedBytes atomic.Int64
	corrupt      atomic.Int64
	writeSkips   atomic.Int64
}

// DiskOptions configures the persistent tier.
type DiskOptions struct {
	// MaxBytes is the size budget the LRU evictor enforces after writes.
	// 0 means DefaultDiskBudget; negative means unbounded.
	MaxBytes int64
}

const (
	// DefaultDiskBudget is the cache-size budget when DiskOptions.MaxBytes
	// is zero.
	DefaultDiskBudget = 1 << 30 // 1 GiB

	diskMagic   = "GPA2"
	artSuffix   = ".art"
	claimSuffix = ".claim"

	// staleTTL is how old an orphaned claim or temp file must be before
	// another writer may break it (a crashed writer's leftovers).
	staleTTL = 5 * time.Minute
)

// OpenDisk opens (creating if needed) a persistent artifact cache rooted at
// dir. Multiple Disk handles — in one process or many — may share a
// directory concurrently.
func OpenDisk(dir string, o DiskOptions) (*Disk, error) {
	if dir == "" {
		return nil, errors.New("pipeline: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: open disk cache: %w", err)
	}
	d := &Disk{dir: dir, maxBytes: o.MaxBytes}
	if d.maxBytes == 0 {
		d.maxBytes = DefaultDiskBudget
	}
	d.size.Store(d.scan(nil))
	return d, nil
}

// Dir returns the cache directory.
func (d *Disk) Dir() string { return d.dir }

// DiskStats snapshots the disk tier's counters. Byte counts are whole
// artifact files, header and checksum included.
type DiskStats struct {
	Dir          string `json:"dir,omitempty"`
	MaxBytes     int64  `json:"max_bytes"`
	SizeBytes    int64  `json:"size_bytes"`
	BytesRead    int64  `json:"bytes_read"`
	BytesWritten int64  `json:"bytes_written"`
	Evictions    int64  `json:"evictions"`
	EvictedBytes int64  `json:"evicted_bytes"`
	Corrupt      int64  `json:"corrupt"`
	WriteSkips   int64  `json:"write_skips"`
}

// Stats snapshots the tier's counters. Nil-safe.
func (d *Disk) Stats() DiskStats {
	if d == nil {
		return DiskStats{}
	}
	return DiskStats{
		Dir:          d.dir,
		MaxBytes:     d.maxBytes,
		SizeBytes:    d.size.Load(),
		BytesRead:    d.bytesRead.Load(),
		BytesWritten: d.bytesWritten.Load(),
		Evictions:    d.evictions.Load(),
		EvictedBytes: d.evictedBytes.Load(),
		Corrupt:      d.corrupt.Load(),
		WriteSkips:   d.writeSkips.Load(),
	}
}

func (d *Disk) path(st Stage, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, st.String(), hex.EncodeToString(sum[:16])+artSuffix)
}

// diskMeta is the persisted compute-cost header, so a disk hit reports the
// original computation's cost exactly like an in-memory hit does.
type diskMeta struct {
	compute time.Duration
	alloc   uint64
}

// get reads, validates, and returns the payload for key. Any failure — no
// file, bad checksum, header mismatch — is a miss; invalid files are
// deleted so they cannot fail again. A hit refreshes the file's mtime,
// which is the LRU recency signal.
func (d *Disk) get(st Stage, key string) ([]byte, diskMeta, bool) {
	p := d.path(st, key)
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, diskMeta{}, false
	}
	payload, meta, perr := parseArtifactFile(data, st, key)
	if perr != nil {
		d.corrupt.Add(1)
		if os.Remove(p) == nil {
			d.size.Add(-int64(len(data)))
		}
		return nil, diskMeta{}, false
	}
	d.bytesRead.Add(int64(len(data)))
	now := time.Now()
	os.Chtimes(p, now, now) // best-effort LRU touch
	return payload, meta, true
}

// discard removes key's artifact (it decoded as garbage despite a valid
// checksum: version skew or a codec bug) and counts it corrupt.
func (d *Disk) discard(st Stage, key string) {
	d.corrupt.Add(1)
	p := d.path(st, key)
	if fi, err := os.Stat(p); err == nil {
		if os.Remove(p) == nil {
			d.size.Add(-fi.Size())
		}
	}
}

// put persists an artifact. Best-effort by design: every failure path just
// skips the write — the artifact stays in memory and can be recomputed by
// the next process.
func (d *Disk) put(st Stage, key string, payload []byte, meta diskMeta) {
	p := d.path(st, key)
	if _, err := os.Stat(p); err == nil {
		// Another writer (this run or an earlier one) already persisted
		// these bytes.
		d.writeSkips.Add(1)
		return
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return
	}
	claim := p + claimSuffix
	if !d.claim(claim) {
		d.writeSkips.Add(1)
		return
	}
	defer os.Remove(claim)
	data := buildArtifactFile(st, key, payload, meta)
	tmp := fmt.Sprintf("%s.tmp.%d", p, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return
	}
	d.bytesWritten.Add(int64(len(data)))
	if d.size.Add(int64(len(data))) > d.maxBytes && d.maxBytes > 0 {
		d.evict()
	}
}

// claim takes the per-key write claim via O_EXCL creation. An existing
// claim older than staleTTL belongs to a crashed writer and is broken.
func (d *Disk) claim(path string) bool {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err == nil {
		f.Close()
		return true
	}
	if !errors.Is(err, os.ErrExist) {
		return false
	}
	if fi, serr := os.Stat(path); serr == nil && time.Since(fi.ModTime()) > staleTTL {
		os.Remove(path)
		if f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); err == nil {
			f.Close()
			return true
		}
	}
	return false
}

type artFile struct {
	path  string
	size  int64
	mtime time.Time
}

// scan walks the stage directories, appending every artifact to *files (if
// non-nil), sweeping stale temp/claim litter, and returning the total
// artifact bytes on disk.
func (d *Disk) scan(files *[]artFile) int64 {
	var total int64
	for st := Stage(0); st < numStages; st++ {
		dir := filepath.Join(d.dir, st.String())
		ents, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, ent := range ents {
			fi, err := ent.Info()
			if err != nil {
				continue
			}
			full := filepath.Join(dir, ent.Name())
			switch {
			case strings.HasSuffix(ent.Name(), artSuffix):
				total += fi.Size()
				if files != nil {
					*files = append(*files, artFile{path: full, size: fi.Size(), mtime: fi.ModTime()})
				}
			default:
				// .claim or .tmp.<pid> leftovers from a crashed writer.
				if time.Since(fi.ModTime()) > staleTTL {
					os.Remove(full)
				}
			}
		}
	}
	return total
}

// evict enforces the size budget: rescan (correcting for writers in other
// processes), then remove least-recently-used artifacts until under budget.
// Removing a file another process is about to read is safe — it simply
// recomputes and may re-persist.
func (d *Disk) evict() {
	d.evictMu.Lock()
	defer d.evictMu.Unlock()
	var files []artFile
	total := d.scan(&files)
	if total <= d.maxBytes {
		d.size.Store(total)
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].path < files[j].path
	})
	for _, f := range files {
		if total <= d.maxBytes {
			break
		}
		if os.Remove(f.path) != nil {
			continue
		}
		total -= f.size
		d.evictions.Add(1)
		d.evictedBytes.Add(f.size)
	}
	d.size.Store(total)
}

// buildArtifactFile frames a payload for disk: magic, stage, full key,
// compute-cost header, payload, SHA-256 trailer over everything before it.
func buildArtifactFile(st Stage, key string, payload []byte, meta diskMeta) []byte {
	e := &enc{buf: make([]byte, 0, len(diskMagic)+len(key)+len(payload)+64)}
	e.buf = append(e.buf, diskMagic...)
	e.u8(uint8(st))
	e.str(key)
	e.uv(uint64(meta.compute))
	e.uv(meta.alloc)
	e.bytes(payload)
	sum := sha256.Sum256(e.buf)
	e.buf = append(e.buf, sum[:]...)
	return e.buf
}

// parseArtifactFile validates the frame and returns the payload. The stage
// and key must match the request, so a renamed or colliding file cannot
// serve the wrong artifact.
func parseArtifactFile(data []byte, st Stage, key string) ([]byte, diskMeta, error) {
	if len(data) < len(diskMagic)+sha256.Size {
		return nil, diskMeta{}, errCorrupt
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], trailer) {
		return nil, diskMeta{}, errCorrupt
	}
	if string(body[:len(diskMagic)]) != diskMagic {
		return nil, diskMeta{}, errCorrupt
	}
	d := &dec{buf: body, off: len(diskMagic)}
	if Stage(d.u8()) != st || d.str() != key {
		return nil, diskMeta{}, errCorrupt
	}
	meta := diskMeta{compute: time.Duration(d.uv()), alloc: d.uv()}
	payload := d.bytes()
	if d.bad || d.off != len(body) {
		return nil, diskMeta{}, errCorrupt
	}
	return payload, meta, nil
}
