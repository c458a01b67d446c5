package wall

import (
	"strings"
	"testing"
	"time"
)

// TestWallBuckets pins the uncached-time accounting: stops accumulate into
// named buckets, stats render sorted by time, and Reset clears them.
func TestWallBuckets(t *testing.T) {
	Reset()
	defer Reset()

	stop := Track("alpha")
	time.Sleep(2 * time.Millisecond)
	stop()
	for i := 0; i < 3; i++ {
		Track("beta")()
	}

	stats := Stats()
	if len(stats) != 2 {
		t.Fatalf("buckets = %d, want 2", len(stats))
	}
	if stats[0].Name != "alpha" || stats[0].Count != 1 || stats[0].Seconds <= 0 {
		t.Errorf("alpha bucket = %+v", stats[0])
	}
	if stats[1].Name != "beta" || stats[1].Count != 3 {
		t.Errorf("beta bucket = %+v", stats[1])
	}

	line := Line()
	if !strings.Contains(line, "alpha=") || !strings.Contains(line, "beta=") {
		t.Errorf("Line missing buckets: %q", line)
	}
	if ai, bi := strings.Index(line, "alpha="), strings.Index(line, "beta="); ai > bi {
		t.Errorf("buckets not sorted by time: %q", line)
	}

	Reset()
	if got := Stats(); len(got) != 0 {
		t.Errorf("buckets after reset = %d, want 0", len(got))
	}
	if line := Line(); !strings.Contains(line, "no tracked regions") {
		t.Errorf("empty Line = %q", line)
	}
}
