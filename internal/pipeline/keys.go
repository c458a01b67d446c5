package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
	"github.com/nofreelunch/gadget-planner/internal/wall"
)

// Artifact keys are canonical fingerprints of everything that determines a
// stage's output, chained stage to stage: a downstream key embeds its
// upstream key, so two cells share a minimize artifact only when their
// whole build→extract prefix matches. Hashes cover content (program
// source, binary bytes); options contribute their canonical Fingerprint()
// renderings, which apply defaults — so a zero Options and an explicitly
// defaulted one address the same artifact — and exclude worker counts,
// which never change results.

// BuildKey fingerprints the compile/obfuscate stage: the program source,
// the ordered pass names, and the obfuscation seed. The program's display
// name is deliberately excluded — two differently-named programs with the
// same source build the same binary.
func BuildKey(source string, passNames []string, seed int64) string {
	h := sha256.New()
	io.WriteString(h, source)
	h.Write([]byte{0})
	for _, n := range passNames {
		io.WriteString(h, n)
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "seed=%d", seed)
	return "build:" + hex.EncodeToString(h.Sum(nil)[:16])
}

// BuildKeyISA fingerprints the compile/obfuscate stage under a specific
// backend. The default x64 backend yields BuildKey's exact string, so every
// pre-multi-ISA build artifact stays addressable.
func BuildKeyISA(source string, passNames []string, seed int64, isaName string) string {
	k := BuildKey(source, passNames, seed)
	if name := isa.CanonicalISA(isaName); name != isa.DefaultISA {
		k += "|isa=" + name
	}
	return k
}

// BinaryKey content-addresses a binary (its serialized bytes), memoized
// per *sbf.Binary pointer — store-shared binaries are hashed once.
// Nil-safe: a nil store returns "" (compute-directly mode).
func (s *Store) BinaryKey(bin *sbf.Binary) string {
	if s == nil {
		return ""
	}
	if k, ok := s.binKeys.Load(bin); ok {
		return k.(string)
	}
	defer wall.Track("keyhash")()
	sum := sha256.Sum256(bin.Marshal())
	k := "bin:" + hex.EncodeToString(sum[:16])
	s.binKeys.Store(bin, k)
	return k
}

// EncodeKey fingerprints the self-modification transform of a built binary.
func EncodeKey(binKey string, xorKey byte) string {
	return binKey + "|enc:" + fmt.Sprintf("%d", xorKey)
}

// CountKey fingerprints the classic gadget scan of a binary.
func CountKey(binKey string, maxInsts int) string {
	if maxInsts == 0 {
		maxInsts = 10 // gadget.Count's default
	}
	return binKey + "|count:" + fmt.Sprintf("%d", maxInsts)
}

// CountKeyISA fingerprints the classic scan under a specific backend. The
// default x64 backend yields CountKey's exact string, so pre-multi-ISA warm
// caches stay addressable.
func CountKeyISA(binKey string, maxInsts int, isaName string) string {
	k := CountKey(binKey, maxInsts)
	if name := isa.CanonicalISA(isaName); name != isa.DefaultISA {
		k += ",isa=" + name
	}
	return k
}

// ExtractKey fingerprints the extraction stage.
func ExtractKey(binKey string, o gadget.Options) string {
	return binKey + "|x:" + o.Fingerprint()
}

// MinimizeKey fingerprints the subsumption stage on an extracted pool.
func MinimizeKey(extractKey string, o subsume.Options) string {
	return extractKey + "|m:" + o.Fingerprint()
}

// SkipSubsumeKey marks a pool that bypassed minimization (the ablation
// configuration) so its plan artifacts never alias the minimized pool's.
func SkipSubsumeKey(extractKey string) string {
	return extractKey + "|m:skip"
}

// PlanKey fingerprints the planning + payload-construction stage for one
// goal: the pool artifact it searches, the goal (by canonical name — core's
// goals come from planner.Goals()), the search options, and the payload
// parameters the validator closure is built from.
func PlanKey(poolKey, goalName string, o planner.Options, payloadBase, verifySteps uint64) string {
	// verify=true is a constant: every payload is emulator-verified, and
	// the literal keeps every stored plan key valid.
	return fmt.Sprintf("%s|p:%s|%s|base=%#x,steps=%d,verify=true",
		poolKey, goalName, o.Fingerprint(), payloadBase, verifySteps)
}

// Build compiles (source, passes, seed) through the store.
func Build(s *Store, p benchprog.Program, passes []obfuscate.Pass, seed int64) (*sbf.Binary, error) {
	bin, _, err := BuildCtx(context.Background(), s, p, passes, seed)
	return bin, err
}

// BuildCtx is Build with a cancellation boundary and the store's request
// outcome — the analysis service uses the Info to report per-stage
// progress and cached markers to clients.
func BuildCtx(ctx context.Context, s *Store, p benchprog.Program, passes []obfuscate.Pass, seed int64) (*sbf.Binary, Info, error) {
	key := ""
	if s != nil {
		names := make([]string, len(passes))
		for i, ps := range passes {
			names[i] = ps.Name()
		}
		key = BuildKey(p.Source, names, seed)
	}
	return DoCtx(ctx, s, StageBuild, key, func() (*sbf.Binary, error) {
		return benchprog.Build(p, passes, seed)
	})
}

// BuildISACtx is BuildCtx against a specific code-generation backend
// ("x64", "rv64", "rv64c"; empty selects the default x64 and produces
// BuildCtx's exact artifact and key).
func BuildISACtx(ctx context.Context, s *Store, p benchprog.Program, passes []obfuscate.Pass, seed int64, isaName string) (*sbf.Binary, Info, error) {
	if isa.CanonicalISA(isaName) == isa.DefaultISA {
		return BuildCtx(ctx, s, p, passes, seed)
	}
	key := ""
	if s != nil {
		names := make([]string, len(passes))
		for i, ps := range passes {
			names[i] = ps.Name()
		}
		key = BuildKeyISA(p.Source, names, seed, isaName)
	}
	return DoCtx(ctx, s, StageBuild, key, func() (*sbf.Binary, error) {
		return benchprog.BuildISA(p, passes, seed, isaName)
	})
}

// SelfModify applies the post-link self-modification transform through the
// store.
func SelfModify(s *Store, bin *sbf.Binary, key byte) (*sbf.Binary, error) {
	out, _, err := SelfModifyCtx(context.Background(), s, bin, key)
	return out, err
}

// SelfModifyCtx is SelfModify with a cancellation boundary and the store's
// request outcome.
func SelfModifyCtx(ctx context.Context, s *Store, bin *sbf.Binary, key byte) (*sbf.Binary, Info, error) {
	k := ""
	if s != nil {
		k = EncodeKey(s.BinaryKey(bin), key)
	}
	return DoCtx(ctx, s, StageEncode, k, func() (*sbf.Binary, error) {
		return obfuscate.SelfModifyBinary(bin, key)
	})
}

// Count runs the classic gadget scan through the store, decoding on
// runtime.GOMAXPROCS(0) workers. The returned map is a shared artifact:
// read-only by contract.
func Count(s *Store, bin *sbf.Binary, maxInsts int) map[gadget.JmpType]int {
	m, _, _ := CountCtx(context.Background(), s, bin, maxInsts, 0)
	return m
}

// CountCtx is Count with a cancellation boundary, the scan's worker count
// (<=0 means runtime.GOMAXPROCS(0)) and the store's request outcome. The
// scan runs under the binary's own backend (pre-multi-ISA binaries carry an
// empty tag, read as x64).
func CountCtx(ctx context.Context, s *Store, bin *sbf.Binary, maxInsts, parallelism int) (map[gadget.JmpType]int, Info, error) {
	return CountISACtx(ctx, s, bin, maxInsts, bin.ISA, parallelism)
}

// CountISA runs the classic scan under a specific backend through the store.
func CountISA(s *Store, bin *sbf.Binary, maxInsts int, isaName string) map[gadget.JmpType]int {
	m, _, _ := CountISACtx(context.Background(), s, bin, maxInsts, isaName, 0)
	return m
}

// CountISACtx is CountISA with a cancellation boundary, the scan's worker
// count and the store's request outcome. The count key leaves parallelism
// out: the counts are identical at every worker count.
func CountISACtx(ctx context.Context, s *Store, bin *sbf.Binary, maxInsts int, isaName string, parallelism int) (map[gadget.JmpType]int, Info, error) {
	k := ""
	if s != nil {
		k = CountKeyISA(s.BinaryKey(bin), maxInsts, isaName)
	}
	be, ok := isa.ByName(isaName)
	if !ok {
		be = isa.X64
	}
	return DoCtx(ctx, s, StageCount, k, func() (map[gadget.JmpType]int, error) {
		return gadget.CountParallel(bin, maxInsts, be, parallelism), nil
	})
}

// Extract runs the extraction stage through the store. The returned pool is
// a shared immutable artifact: consumers that mutate builder state clone it
// first (gadget.ClonePool).
func Extract(s *Store, bin *sbf.Binary, o gadget.Options) *gadget.Pool {
	k := ""
	if s != nil {
		k = ExtractKey(s.BinaryKey(bin), o)
	}
	pool, _, err := Do(s, StageExtract, k, func() (*gadget.Pool, error) {
		return gadget.Extract(bin, o), nil
	})
	if err != nil {
		panic(err) // the stage cannot fail: err is a recovered panic
	}
	return pool
}
