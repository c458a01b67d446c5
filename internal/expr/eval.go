package expr

import "fmt"

// Env binds variable names to concrete values (masked to variable width).
type Env map[string]uint64

// Eval computes the concrete value of n under env. Boolean nodes evaluate to
// 0 or 1. Unbound variables are an error.
func Eval(n *Node, env Env) (uint64, error) {
	cache := make(map[uint32]uint64)
	return evalRec(n, env, cache)
}

func evalRec(n *Node, env Env, cache map[uint32]uint64) (uint64, error) {
	if v, ok := cache[n.id]; ok {
		return v, nil
	}
	v, err := evalNode(n, env, cache)
	if err != nil {
		return 0, err
	}
	cache[n.id] = v
	return v, nil
}

func evalNode(n *Node, env Env, cache map[uint32]uint64) (uint64, error) {
	switch n.Kind {
	case KindConst:
		return n.Val, nil
	case KindVar:
		v, ok := env[n.Name]
		if !ok {
			return 0, fmt.Errorf("expr: unbound variable %q", n.Name)
		}
		return maskWidth(v, n.Width), nil
	}

	args := make([]uint64, len(n.Args))
	for i, a := range n.Args {
		v, err := evalRec(a, env, cache)
		if err != nil {
			return 0, err
		}
		args[i] = v
	}
	w := n.Width
	aw := uint8(64)
	if len(n.Args) > 0 {
		aw = n.Args[0].Width
	}

	boolVal := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}

	switch n.Kind {
	case KindAdd:
		return maskWidth(args[0]+args[1], w), nil
	case KindSub:
		return maskWidth(args[0]-args[1], w), nil
	case KindMul:
		return maskWidth(args[0]*args[1], w), nil
	case KindAnd:
		return args[0] & args[1], nil
	case KindOr:
		return args[0] | args[1], nil
	case KindXor:
		return args[0] ^ args[1], nil
	case KindShl:
		return maskWidth(args[0]<<(args[1]%uint64(w)), w), nil
	case KindLshr:
		return args[0] >> (args[1] % uint64(w)), nil
	case KindAshr:
		sv := int64(signExtend(args[0], w))
		return maskWidth(uint64(sv>>(args[1]%uint64(w))), w), nil
	case KindNot:
		return maskWidth(^args[0], w), nil
	case KindNeg:
		return maskWidth(-args[0], w), nil
	case KindZext:
		return args[0], nil
	case KindSext:
		return maskWidth(signExtend(args[0], aw), w), nil
	case KindTrunc:
		return maskWidth(args[0], w), nil
	case KindIte:
		if args[0] == 1 {
			return args[1], nil
		}
		return args[2], nil
	case KindEq:
		return boolVal(args[0] == args[1]), nil
	case KindUlt:
		return boolVal(args[0] < args[1]), nil
	case KindSlt:
		return boolVal(int64(signExtend(args[0], aw)) < int64(signExtend(args[1], aw))), nil
	case KindBAnd:
		return args[0] & args[1], nil
	case KindBOr:
		return args[0] | args[1], nil
	case KindBNot:
		return args[0] ^ 1, nil
	}
	return 0, fmt.Errorf("expr: cannot evaluate kind %d", n.Kind)
}

// EvalBool evaluates a boolean node under env.
func EvalBool(n *Node, env Env) (bool, error) {
	if n.Width != BoolWidth {
		return false, fmt.Errorf("expr: EvalBool on width-%d node", n.Width)
	}
	v, err := Eval(n, env)
	return v == 1, err
}

// Subst rebuilds n with every variable named in bind replaced by its
// binding. Rebuilding goes through the builder, so simplifications reapply.
// Variables not present in bind are kept.
func Subst(b *Builder, n *Node, bind map[string]*Node) *Node {
	cache := make(map[uint32]*Node)
	return substRec(b, n, bind, cache)
}

func substRec(b *Builder, n *Node, bind map[string]*Node, cache map[uint32]*Node) *Node {
	if v, ok := cache[n.id]; ok {
		return v
	}
	var out *Node
	switch n.Kind {
	case KindConst:
		out = n
	case KindVar:
		if repl, ok := bind[n.Name]; ok {
			if repl.Width != n.Width {
				panic(fmt.Sprintf("expr: substitution width mismatch for %q: %d vs %d",
					n.Name, repl.Width, n.Width))
			}
			out = repl
		} else {
			out = b.Var(n.Name, n.Width)
		}
	default:
		args := make([]*Node, len(n.Args))
		changed := false
		for i, a := range n.Args {
			args[i] = substRec(b, a, bind, cache)
			if args[i] != a {
				changed = true
			}
		}
		if !changed {
			out = rebuild(b, n, n.Args)
		} else {
			out = rebuild(b, n, args)
		}
	}
	cache[n.id] = out
	return out
}

// rebuild re-creates a node of the same kind through the builder's smart
// constructors, which both interns it in b and reapplies simplification.
func rebuild(b *Builder, n *Node, args []*Node) *Node {
	switch n.Kind {
	case KindAdd:
		return b.Add(args[0], args[1])
	case KindSub:
		return b.Sub(args[0], args[1])
	case KindMul:
		return b.Mul(args[0], args[1])
	case KindAnd:
		return b.And(args[0], args[1])
	case KindOr:
		return b.Or(args[0], args[1])
	case KindXor:
		return b.Xor(args[0], args[1])
	case KindShl:
		return b.Shl(args[0], args[1])
	case KindLshr:
		return b.Lshr(args[0], args[1])
	case KindAshr:
		return b.Ashr(args[0], args[1])
	case KindNot:
		return b.Not(args[0])
	case KindNeg:
		return b.Neg(args[0])
	case KindZext:
		return b.Zext(args[0], n.Width)
	case KindSext:
		return b.Sext(args[0], n.Width)
	case KindTrunc:
		return b.Trunc(args[0], n.Width)
	case KindIte:
		return b.Ite(args[0], args[1], args[2])
	case KindEq:
		return b.Eq(args[0], args[1])
	case KindUlt:
		return b.Ult(args[0], args[1])
	case KindSlt:
		return b.Slt(args[0], args[1])
	case KindBAnd:
		return b.BAnd(args[0], args[1])
	case KindBOr:
		return b.BOr(args[0], args[1])
	case KindBNot:
		return b.BNot(args[0])
	}
	panic(fmt.Sprintf("expr: rebuild of kind %d", n.Kind))
}
