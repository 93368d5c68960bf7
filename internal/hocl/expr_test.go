package hocl

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// evalGuardSrc parses src as a rule guard over the given binding and
// evaluates it.
func evalGuardSrc(t *testing.T, guard string, bind map[string]Atom) bool {
	t.Helper()
	r, err := ParseRuleBody("g", "replace x by x if "+guard, nil)
	if err != nil {
		t.Fatalf("parse guard %q: %v", guard, err)
	}
	env := NewBinding()
	for k, v := range bind {
		env.bindAtom(k, v)
	}
	return EvalGuard(r.Guard, env, NewFuncs())
}

func TestGuardArithmeticAndComparison(t *testing.T) {
	env := map[string]Atom{"a": Int(6), "b": Int(4), "f": Float(2.5), "s": Str("abc")}
	cases := []struct {
		guard string
		want  bool
	}{
		{"a > b", true},
		{"a < b", false},
		{"a >= 6", true},
		{"a <= 5", false},
		{"a == 6", true},
		{"a != 6", false},
		{"a + b == 10", true},
		{"a - b == 2", true},
		{"a * b == 24", true},
		{"a / b == 1", true}, // integer division
		{"a % b == 2", true},
		{"f * 2.0 == 5.0", true},
		{"a + f == 8.5", true}, // int promotes to float
		{"f < a", true},
		{"s == \"abc\"", true},
		{"s + \"d\" == \"abcd\"", true},
		{"s < \"b\"", true}, // lexicographic
		{"a > 0 && b > 0", true},
		{"a < 0 || b > 0", true},
		{"!(a < 0)", true},
		{"a > 0 && !(b > 100)", true},
		{"-a == -6", true},
		{"a / 0 == 1", false}, // division by zero -> guard false
		{"a % 0 == 1", false}, // modulo by zero -> guard false
		{"s > 1", false},      // type mismatch -> guard false
		{"a && true", false},  // non-bool operand -> guard false
		{"true && a > 0", true},
		{"false || a == 6", true},
		{"!a", false},              // negating non-bool -> guard false
		{"unknownvar == 1", false}, // unbound -> guard false
		{"nosuchfn(a) == 1", false},
	}
	for _, c := range cases {
		if got := evalGuardSrc(t, c.guard, env); got != c.want {
			t.Errorf("guard %q = %v, want %v", c.guard, got, c.want)
		}
	}
}

func TestGuardShortCircuit(t *testing.T) {
	// && short-circuits: the erroring right side is never evaluated.
	env := map[string]Atom{"a": Int(1)}
	if evalGuardSrc(t, "false && nosuchfn(a) == 1", env) {
		t.Error("false && ... should be false")
	}
	if !evalGuardSrc(t, "true || nosuchfn(a) == 1", env) {
		t.Error("true || ... should be true")
	}
}

func TestNilGuardIsTrue(t *testing.T) {
	if !EvalGuard(nil, NewBinding(), NewFuncs()) {
		t.Error("nil guard must be true")
	}
}

func TestEvalElemsSplicesOmega(t *testing.T) {
	env := NewBinding()
	env.bindRest("w", []Atom{Int(1), Int(2)})
	out, err := EvalElems([]Expr{
		&ELit{Val: Ident("HEAD")},
		&EVar{Name: "w", Omega: true},
		&ELit{Val: Ident("TAIL")},
	}, env, NewFuncs())
	if err != nil {
		t.Fatal(err)
	}
	want := []Atom{Ident("HEAD"), Int(1), Int(2), Ident("TAIL")}
	if len(out) != len(want) {
		t.Fatalf("got %v", out)
	}
	for i := range want {
		if !out[i].Equal(want[i]) {
			t.Errorf("elem %d = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestEvalScalarErrors(t *testing.T) {
	env := NewBinding()
	env.bindRest("w", []Atom{Int(1)})
	cases := []Expr{
		&EVar{Name: "w", Omega: true},              // omega in scalar position
		&EVar{Name: "missing"},                     // unbound
		&ECall{Fn: "nosuch"},                       // unknown function
		&ETuple{Elems: []Expr{&ELit{Val: Int(1)}}}, // 1-element tuple
	}
	for _, e := range cases {
		if _, err := EvalScalar(e, env, NewFuncs()); err == nil {
			t.Errorf("EvalScalar(%v) succeeded, want error", e)
		}
	}
}

func TestEvalErrorMessage(t *testing.T) {
	_, err := EvalScalar(&EVar{Name: "nope"}, NewBinding(), NewFuncs())
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("error %v should mention the variable", err)
	}
}

func TestBuiltinFunctions(t *testing.T) {
	funcs := NewFuncs()
	call := func(name string, args ...Atom) ([]Atom, error) {
		fn, ok := funcs.Lookup(name)
		if !ok {
			t.Fatalf("builtin %q missing", name)
		}
		return fn(args)
	}

	if out, err := call("list", Int(1), Int(2)); err != nil || !out[0].Equal(List{Int(1), Int(2)}) {
		t.Errorf("list: %v, %v", out, err)
	}
	if out, err := call("len", List{Int(1), Int(2), Int(3)}); err != nil || !out[0].Equal(Int(3)) {
		t.Errorf("len list: %v, %v", out, err)
	}
	if out, err := call("len", Str("abcd")); err != nil || !out[0].Equal(Int(4)) {
		t.Errorf("len str: %v, %v", out, err)
	}
	if out, err := call("len", NewSolution(Int(1))); err != nil || !out[0].Equal(Int(1)) {
		t.Errorf("len solution: %v, %v", out, err)
	}
	if _, err := call("len", Int(1)); err == nil {
		t.Error("len int should error")
	}
	if out, err := call("head", List{Int(9), Int(8)}); err != nil || !out[0].Equal(Int(9)) {
		t.Errorf("head: %v, %v", out, err)
	}
	if _, err := call("head", List{}); err == nil {
		t.Error("head of empty list should error")
	}
	if out, err := call("tail", List{Int(9), Int(8)}); err != nil || !out[0].Equal(List{Int(8)}) {
		t.Errorf("tail: %v, %v", out, err)
	}
	if out, err := call("append", List{Int(1)}, Int(2)); err != nil || !out[0].Equal(List{Int(1), Int(2)}) {
		t.Errorf("append: %v, %v", out, err)
	}
	if out, err := call("concat", List{Int(1)}, List{Int(2)}); err != nil || !out[0].Equal(List{Int(1), Int(2)}) {
		t.Errorf("concat: %v, %v", out, err)
	}
	if out, err := call("str", Str("a"), Int(1)); err != nil || !out[0].Equal(Str("a1")) {
		t.Errorf("str: %v, %v", out, err)
	}
	if out, err := call("flatten", List{Int(1), Int(2)}); err != nil || len(out) != 2 {
		t.Errorf("flatten: %v, %v", out, err)
	}
}

func TestFuncsRegistryOps(t *testing.T) {
	f := NewFuncs()
	f.Register("custom", func(args []Atom) ([]Atom, error) { return nil, nil })
	if _, ok := f.Lookup("custom"); !ok {
		t.Error("registered function missing")
	}
	names := f.Names()
	if len(names) == 0 {
		t.Fatal("Names empty")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Errorf("Names not sorted: %v", names)
		}
	}
	// Zero value is usable, and resolves no built-ins.
	var z Funcs
	z.Register("zv", func(args []Atom) ([]Atom, error) { return nil, nil })
	if _, ok := z.Lookup("zv"); !ok {
		t.Error("zero-value registry unusable")
	}
	if _, ok := z.Lookup("len"); ok {
		t.Error("zero-value registry resolves a built-in")
	}
}

// TestFuncsSharedBuiltins pins the shared built-in table: registries
// from NewFuncs resolve the same built-ins without copying them, and a
// registration shadows a built-in in its own registry only.
func TestFuncsSharedBuiltins(t *testing.T) {
	f, g := NewFuncs(), NewFuncs()
	f.Register("len", func(args []Atom) ([]Atom, error) { return []Atom{Int(-1)}, nil })
	arg := []Atom{List{Int(1), Int(2)}}
	fn, _ := f.Lookup("len")
	if out, _ := fn(arg); !out[0].Equal(Int(-1)) {
		t.Errorf("override not visible in its registry: %v", out)
	}
	fn, _ = g.Lookup("len")
	if out, _ := fn(arg); !out[0].Equal(Int(2)) {
		t.Errorf("override leaked into another registry: %v", out)
	}
	names := g.Names()
	for _, want := range []string{"len", "list", "sum", "contains"} {
		if !slices.Contains(names, want) {
			t.Errorf("Names() = %v, missing built-in %q", names, want)
		}
	}
	fNames := f.Names()
	if !slices.Equal(fNames, names) {
		t.Errorf("overriding a built-in changed the name set: %v vs %v", fNames, names)
	}
	f.Register("custom", func(args []Atom) ([]Atom, error) { return nil, nil })
	if got := len(f.Names()); got != len(names)+1 {
		t.Errorf("Names() has %d entries after one new registration, want %d", got, len(names)+1)
	}
	if _, ok := g.Lookup("custom"); ok {
		t.Error("registration leaked into another registry")
	}
}

// TestFuncsConcurrentLookupRegister runs lookups of built-ins and of
// own registrations against concurrent registrations; -race checks the
// registry's locking and that the shared table is only read.
func TestFuncsConcurrentLookupRegister(t *testing.T) {
	regs := []*Funcs{NewFuncs(), NewFuncs()}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		f := regs[w%2]
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("fn%d_%d", w, i%8)
				f.Register(name, func(args []Atom) ([]Atom, error) { return nil, nil })
				if _, ok := f.Lookup(name); !ok {
					t.Errorf("lookup of %s after registering it failed", name)
					return
				}
				if _, ok := f.Lookup("list"); !ok {
					t.Error("built-in list missing")
					return
				}
				_ = f.Names()
			}
		}(w)
	}
	wg.Wait()
}

func TestBindingUndo(t *testing.T) {
	b := NewBinding()
	b.bindAtom("x", Int(1))
	mark := b.mark()
	b.bindAtom("y", Int(2))
	b.bindRest("w", []Atom{Int(3)})
	b.undo(mark)
	if _, ok := b.Atom("y"); ok {
		t.Error("y should be unbound after undo")
	}
	if _, ok := b.Rest("w"); ok {
		t.Error("w should be unbound after undo")
	}
	if v, ok := b.Atom("x"); !ok || !v.Equal(Int(1)) {
		t.Error("x lost by undo")
	}
}

func TestExprStrings(t *testing.T) {
	r := MustParseRuleBody("r",
		`replace SRC:<>, x, <*w> by PAR:list(*w), x + 1, [x, 2] if x >= 0 && x != 9`, nil)
	body := r.Body()
	for _, frag := range []string{"replace", "SRC:<>", "by", "PAR:list(*w)", "if", ">="} {
		if !strings.Contains(body, frag) {
			t.Errorf("Body() = %q missing %q", body, frag)
		}
	}
	// Rule.String is parseable (covered elsewhere); check shape here.
	if !strings.HasPrefix(r.String(), "(rule r = replace") {
		t.Errorf("String() = %q", r.String())
	}
}

func TestCompareAtoms(t *testing.T) {
	cases := []struct {
		a, b Atom
		want int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Int(2), 0, true},
		{Int(3), Int(2), 1, true},
		{Int(1), Float(1.5), -1, true},
		{Float(2.5), Int(2), 1, true},
		{Float(1), Float(1), 0, true},
		{Str("a"), Str("b"), -1, true},
		{Str("a"), Int(1), 0, false},
		{Bool(true), Bool(true), 0, false},
		{Ident("A"), Ident("A"), 0, false},
	}
	for _, c := range cases {
		got, err := compareAtoms(c.a, c.b)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("compare(%v, %v) should error", c.a, c.b)
		}
	}
}
