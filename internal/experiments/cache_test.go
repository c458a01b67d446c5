package experiments

import (
	"fmt"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/pipeline"
)

// TestCacheMatrixTablesIdentical is the store's soundness matrix: the full
// deterministic suite (Fig. 1, Table I, Table IV/V, pool composition) must
// render byte-identically with the artifact store enabled and disabled, at
// every parallelism setting — i.e. caching is invisible everywhere except
// wall-clock. Within each store-enabled run the experiments share builds,
// scans, and pools, so any unsound sharing (a mutated artifact, an aliased
// key, a parallelism-dependent result leaking into a cached cell) shows up
// as a table diff. Each store-enabled run is followed by a warm second pass
// on the same store, which must render the same bytes from hits alone.
func TestCacheMatrixTablesIdentical(t *testing.T) {
	var ref string
	for _, par := range []int{1, 2, 8} {
		for _, caching := range []bool{true, false} {
			opts := quickOpts()
			opts.Parallelism = par
			if caching {
				opts.Store = pipeline.NewStore()
			} else {
				opts.Store = pipeline.NewDisabledStore()
			}
			out, err := CacheSuite(opts)
			if err != nil {
				t.Fatalf("parallelism=%d caching=%v: %v", par, caching, err)
			}
			if ref == "" {
				ref = out
			} else if out != ref {
				t.Errorf("parallelism=%d caching=%v: tables differ from reference\n%s",
					par, caching, diffHint(ref, out))
			}
			if !caching {
				continue
			}
			// The suite must actually exercise the store, or this
			// matrix proves nothing.
			cold := opts.Store.Stats()
			var hits int64
			for _, st := range cold {
				hits += st.Hits
			}
			if hits == 0 {
				t.Errorf("parallelism=%d: store-enabled suite saw no hits", par)
			}
			warm, err := CacheSuite(opts)
			if err != nil {
				t.Fatalf("parallelism=%d warm: %v", par, err)
			}
			if warm != ref {
				t.Errorf("parallelism=%d warm: tables differ from reference\n%s",
					par, diffHint(ref, warm))
			}
			var warmHits int64
			for i, st := range opts.Store.Stats() {
				warmHits += st.Hits - cold[i].Hits
				if m := st.Misses - cold[i].Misses; m != 0 {
					t.Errorf("parallelism=%d warm: %d %s misses, want only hits", par, m, st.Stage)
				}
			}
			if warmHits == 0 {
				t.Errorf("parallelism=%d warm: no hits", par)
			}
		}
	}
}

// diffHint points at the first differing line of two renders.
func diffHint(a, b string) string {
	la, lb := splitLines(a), splitLines(b)
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  ref: %s\n  got: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(la), len(lb))
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
