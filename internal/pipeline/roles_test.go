package pipeline

import (
	"bytes"
	"errors"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// effectNodes lists the roots of every effect of a pool.
func effectNodes(p *gadget.Pool) []*expr.Node {
	var out []*expr.Node
	for _, g := range p.Gadgets {
		e := g.Effect
		out = append(out, e.Regs...)
		if e.NextRIP != nil {
			out = append(out, e.NextRIP)
		}
		for _, w := range e.StackWrites {
			out = append(out, w.Val)
		}
		for _, a := range append(append([]symex.MemAccess(nil), e.MemReads...), e.MemWrites...) {
			out = append(out, a.Addr, a.Val)
		}
		out = append(out, e.Conds...)
	}
	return out
}

// rendered interns, in a scratch builder, the variable symex's typed
// constructors make for v's role and index (nil for the roles they do not
// make).
func rendered(be isa.Backend, v *expr.Node) *expr.Node {
	b := expr.NewBuilder()
	switch v.Role {
	case expr.RoleReg, expr.RoleSP:
		return symex.RegVar(b, be, isa.Reg(v.Val))
	case expr.RoleStack:
		return symex.StackVar(b, int64(v.Val))
	case expr.RoleDeref:
		return symex.DerefVar(b, int(v.Val))
	}
	return nil
}

// TestVarRolesOracle checks variable roles on the netperf pools, for every
// node reachable from any effect: its role set is the union of the roles of
// its variables as a VarCollector finds them; a variable's name is the one
// its role and index render; and a codec round trip gives every variable
// back its role and index.
func TestVarRolesOracle(t *testing.T) {
	for _, isaName := range []string{"x64", "rv64c"} {
		be, _ := isa.ByName(isaName)
		for _, obf := range []string{"", "llvm", "tigress", "virt"} {
			passes, err := obfuscate.ParseSpec(obf)
			if err != nil {
				t.Fatal(err)
			}
			bin, err := benchprog.BuildISA(benchprog.Netperf(), passes, 42, isaName)
			if err != nil {
				t.Fatal(err)
			}
			pool := gadget.Extract(bin, gadget.Options{ISA: isaName, Parallelism: 2})
			cell := isaName + "/" + obf

			var vc expr.VarCollector
			type varKey struct {
				name  string
				width uint8
			}
			vars := make(map[varKey]*expr.Node)
			seen := make(map[*expr.Node]bool)
			var visit func(n *expr.Node)
			visit = func(n *expr.Node) {
				if seen[n] {
					return
				}
				seen[n] = true
				for _, a := range n.Args {
					visit(a)
				}
				var want expr.Roles
				for _, v := range vc.Collect(n) {
					want |= 1 << v.Role
				}
				if n.Roles() != want {
					t.Fatalf("%s: %s has roles %08b, its variables %08b", cell, n, n.Roles(), want)
				}
				if n.Kind != expr.KindVar {
					return
				}
				vars[varKey{n.Name, n.Width}] = n
				if n.Role == expr.RoleCell {
					t.Fatalf("%s: payload cell %s in a pool", cell, n.Name)
				}
				if r := rendered(be, n); r != nil && (r.Name != n.Name || r.Role != n.Role || r.Val != n.Val) {
					t.Fatalf("%s: %s (role %d index %d) renders as %s (role %d index %d)",
						cell, n.Name, n.Role, n.Val, r.Name, r.Role, r.Val)
				}
			}
			for _, n := range effectNodes(pool) {
				visit(n)
			}

			data, ok := encodeArtifact(StageExtract, pool)
			if !ok {
				t.Fatalf("%s: pool did not encode", cell)
			}
			v, err := decodeArtifact(StageExtract, data)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			decoded := expr.VarNodes(effectNodes(v.(*gadget.Pool))...)
			for _, d := range decoded {
				if o := vars[varKey{d.Name, d.Width}]; o == nil || o.Role != d.Role || o.Val != d.Val {
					t.Fatalf("%s: decoded %s has role %d index %d, original %v", cell, d.Name, d.Role, d.Val, o)
				}
			}
			if len(decoded) != len(vars) {
				t.Fatalf("%s: %d variables decoded, %d encoded", cell, len(decoded), len(vars))
			}
		}
	}
}

// TestDecodeForeignRegisterName decodes an x64 pool artifact whose r8 entry
// variable is renamed t60, an RV64 register's entry name, and concretizes a
// plan over it. The pool's own backend classifies the name, so the variable
// is not a register and the goal on r8 is an uncontrolled constraint; read
// as RV register 31 it would index past x64's 16 registers.
func TestDecodeForeignRegisterName(t *testing.T) {
	enc, _ := encodeArtifact(StageExtract, testPool(t))
	r8 := []byte{byte(expr.KindVar), 64, 3, 'r', '8', '0'}
	if n := bytes.Count(enc, r8); n != 1 {
		t.Fatalf("r80 appears %d times in the artifact, want once", n)
	}
	v, err := decodeArtifact(StageExtract, bytes.Replace(enc, r8, []byte{byte(expr.KindVar), 64, 3, 't', '6', '0'}, 1))
	if err != nil {
		t.Fatal(err)
	}
	pool := v.(*gadget.Pool)
	var g *gadget.Gadget
	for _, c := range pool.Gadgets {
		if e := c.Effect.Regs[isa.R8]; e.Name == "t60" && !c.Effect.HasDerefs() && len(c.Effect.Conds) == 0 {
			g = c
			break
		}
	}
	if g == nil {
		t.Fatal("no plain gadget passes t60 through r8")
	}
	if role := g.Effect.Regs[isa.R8].Role; role != expr.RoleOther {
		t.Fatalf("t60 decoded with role %d in an x64 pool, want RoleOther", role)
	}
	plan := planner.RestorePlan([]planner.Step{{ID: 0}, {ID: 1, G: g}}, [][2]int{{0, 1}}, nil, nil, nil, 1)
	goal := planner.Goal{Name: "r8", Regs: map[isa.Reg]planner.ValueSpec{isa.R8: planner.ConstSpec(1)}}
	if _, err := payload.NewConcretizer(pool, nil, 0x7fff_0000).Concretize(plan, goal); !errors.Is(err, payload.ErrUncontrolled) {
		t.Errorf("Concretize over t60 = %v, want ErrUncontrolled", err)
	}
}
