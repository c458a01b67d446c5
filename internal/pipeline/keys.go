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
// the ordered pass names, the obfuscation seed, and the code-generation
// backend. The program's display name is deliberately excluded — two
// differently-named programs with the same source build the same binary.
// The default x64 backend adds nothing to the key, so every pre-multi-ISA
// build artifact stays addressable.
func BuildKey(source string, passNames []string, seed int64, isaName string) string {
	h := sha256.New()
	io.WriteString(h, source)
	h.Write([]byte{0})
	for _, n := range passNames {
		io.WriteString(h, n)
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "seed=%d", seed)
	k := "build:" + hex.EncodeToString(h.Sum(nil)[:16])
	if name := isa.CanonicalISA(isaName); name != isa.DefaultISA {
		k += "|isa=" + name
	}
	return k
}

// BinaryKey content-addresses a binary (its serialized bytes). The digest
// is memoized on the binary itself (sbf.Binary.Digest), so a shared binary
// is hashed once and nothing outlives it.
func BinaryKey(bin *sbf.Binary) string {
	sum := bin.Digest()
	return "bin:" + hex.EncodeToString(sum[:16])
}

// EncodeKey fingerprints the self-modification transform of a built binary.
func EncodeKey(binKey string, xorKey byte) string {
	return binKey + "|enc:" + fmt.Sprintf("%d", xorKey)
}

// countMaxInsts is the classic scan's window: the instructions decoded
// from each offset before the scan gives up on reaching a branch.
const countMaxInsts = 10

// CountKey fingerprints the classic gadget scan of a binary under a
// backend. The default x64 backend adds nothing to the key, so pre-multi-ISA
// warm caches stay addressable.
func CountKey(binKey, isaName string) string {
	k := fmt.Sprintf("%s|count:%d", binKey, countMaxInsts)
	if name := isa.CanonicalISA(isaName); name != isa.DefaultISA {
		k += ",isa=" + name
	}
	return k
}

// ExtractKey fingerprints the extraction stage.
func ExtractKey(binKey string, o gadget.Options) string {
	return binKey + "|x:" + o.Fingerprint()
}

// FilterKey fingerprints the part of an extracted pool a gadget filter
// kept, by the kept gadgets' IDs in the raw pool: two filters that keep the
// same gadgets address the same downstream artifacts.
func FilterKey(extractKey string, kept []int) string {
	h := sha256.New()
	for _, id := range kept {
		fmt.Fprintf(h, "%d,", id)
	}
	return extractKey + "|f:" + hex.EncodeToString(h.Sum(nil)[:16])
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

// BuildISACtx compiles (source, passes, seed) through the store for a
// code-generation backend ("x64", "rv64", "rv64c"; empty selects the
// default x64). The Info is the store's request outcome — the analysis
// service uses it to report per-stage progress and cached markers.
func BuildISACtx(ctx context.Context, s *Store, p benchprog.Program, passes []obfuscate.Pass, seed int64, isaName string) (*sbf.Binary, Info, error) {
	names := make([]string, len(passes))
	for i, ps := range passes {
		names[i] = ps.Name()
	}
	return DoCtx(ctx, s, StageBuild, BuildKey(p.Source, names, seed, isaName), func() (*sbf.Binary, error) {
		return benchprog.BuildISA(p, passes, seed, isaName)
	})
}

// SelfModifyCtx applies the post-link self-modification transform through
// the store.
func SelfModifyCtx(ctx context.Context, s *Store, bin *sbf.Binary, key byte) (*sbf.Binary, Info, error) {
	return DoCtx(ctx, s, StageEncode, EncodeKey(BinaryKey(bin), key), func() (*sbf.Binary, error) {
		return obfuscate.SelfModifyBinary(bin, key)
	})
}

// CountCtx runs the classic gadget scan through the store under the
// binary's own backend (pre-multi-ISA binaries carry an empty tag, read as
// x64), decoding on at most parallelism workers (<=0 means
// runtime.GOMAXPROCS(0)). The count key leaves parallelism out: the counts
// are identical at every worker count. The returned map is a shared
// artifact: read-only by contract.
func CountCtx(ctx context.Context, s *Store, bin *sbf.Binary, parallelism int) (map[gadget.JmpType]int, Info, error) {
	be, ok := isa.ByName(bin.ISA)
	if !ok {
		be = isa.X64
	}
	return DoCtx(ctx, s, StageCount, CountKey(BinaryKey(bin), bin.ISA), func() (map[gadget.JmpType]int, error) {
		return gadget.CountParallel(bin, countMaxInsts, be, parallelism), nil
	})
}
