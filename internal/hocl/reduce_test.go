package hocl

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func reduceProgram(t *testing.T, src string) *Solution {
	t.Helper()
	e := NewEngine()
	sol, err := e.Run(src)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return sol
}

// TestGetMax reproduces the paper's §III-A example: the max rule reduces
// the multiset to its largest value (with the catalyst rule remaining).
func TestGetMax(t *testing.T) {
	sol := reduceProgram(t, `let max = replace x, y by x if x >= y in <2, 3, 5, 8, 9, max>`)
	if sol.Len() != 2 {
		t.Fatalf("final solution %v, want <9, max>", sol)
	}
	if !sol.Contains(Int(9)) {
		t.Errorf("final solution %v must contain 9", sol)
	}
	if len(sol.Rules()) != 1 {
		t.Errorf("catalyst max must remain: %v", sol)
	}
}

// TestGetMaxWithClean reproduces the paper's higher-order variant: clean
// extracts the result from the inner solution and removes max with it.
func TestGetMaxWithClean(t *testing.T) {
	sol := reduceProgram(t, `
		let max = replace x, y by x if x >= y in
		let clean = replace-one <max, *w> by *w in
		<<2, 3, 5, 8, 9, max>, clean>`)
	want := NewSolution(Int(9))
	if !sol.Equal(want) {
		t.Fatalf("final solution %v, want %v", sol, want)
	}
}

// TestCleanWaitsForInertInnerSolution checks the core HOCL law: a
// sub-solution pattern only matches once the sub-solution is inert, so
// clean cannot fire before max has finished.
func TestCleanWaitsForInertInnerSolution(t *testing.T) {
	inner := NewSolution(Int(2), Int(9), MustParseRuleBody("max", "replace x, y by x if x >= y", nil))
	scope := map[string]*Rule{"max": inner.Rules()[0]}
	clean := MustParseRuleBody("clean", "replace-one <max, *w> by *w", scope)
	outer := NewSolution(inner, clean)

	// Direct match against the non-inert inner solution must fail.
	if m := MatchRule(clean, outer, 1, NewFuncs(), nil); m != nil {
		t.Fatal("clean matched a non-inert sub-solution")
	}
	// After full reduction the law is restored and clean has fired.
	if err := NewEngine().Reduce(outer); err != nil {
		t.Fatal(err)
	}
	if !outer.Equal(NewSolution(Int(9))) {
		t.Errorf("outer = %v, want <9>", outer)
	}
}

func TestGetMaxRandomisedOrderIsConfluent(t *testing.T) {
	// getMax is confluent: whatever the (random) reaction order, the
	// result is the maximum.
	for seed := int64(0); seed < 20; seed++ {
		e := NewEngine()
		e.Rand = rand.New(rand.NewSource(seed))
		sol, err := e.Run(`let max = replace x, y by x if x >= y in <4, 17, 3, 17, 9, 1, max>`)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Contains(Int(17)) || sol.Len() != 2 {
			t.Errorf("seed %d: final solution %v", seed, sol)
		}
	}
}

func TestOneShotRuleFiresOnce(t *testing.T) {
	sol := reduceProgram(t, `let inc = replace-one x by x + 100 in <1, 2, inc>`)
	// Exactly one of the two integers got incremented, and inc is gone.
	if sol.Len() != 2 {
		t.Fatalf("final solution %v", sol)
	}
	if len(sol.Rules()) != 0 {
		t.Errorf("one-shot rule must disappear: %v", sol)
	}
	hits := 0
	for _, a := range sol.Atoms() {
		if n, ok := a.(Int); ok && n >= 100 {
			hits++
		}
	}
	if hits != 1 {
		t.Errorf("want exactly one incremented atom, got %d in %v", hits, sol)
	}
}

func TestWithInjectSugar(t *testing.T) {
	// with X inject M keeps X and adds M, firing once.
	sol := reduceProgram(t, `
		let w = with ERROR inject ADAPT, TRIGGER in
		<ERROR, w>`)
	want := NewSolution(Ident("ERROR"), Ident("ADAPT"), Ident("TRIGGER"))
	if !sol.Equal(want) {
		t.Errorf("final solution %v, want %v", sol, want)
	}
}

func TestHigherOrderRuleConsumingRule(t *testing.T) {
	// A rule that removes another rule by name — rules are ordinary atoms.
	sol := reduceProgram(t, `
		let noisy = replace x by x if false in
		let killer = replace-one noisy by nothing in
		<noisy, killer, 7>`)
	want := NewSolution(Int(7))
	if !sol.Equal(want) {
		t.Errorf("final solution %v, want %v", sol, want)
	}
}

func TestRuleProducingRule(t *testing.T) {
	// Higher order in the other direction: firing a rule injects another
	// rule, which then runs. This is exactly how trigger_adapt enables
	// add_dst/mv_src in the paper (§III-C).
	sol := reduceProgram(t, `
		let inner = replace x, y by x if x >= y in
		let boot = with GO inject inner in
		<GO, 3, 8, boot>`)
	// boot is with/inject-style: it keeps GO and injects inner; inner
	// then reduces 3, 8 to 8.
	if !sol.Contains(Int(8)) || sol.Contains(Int(3)) {
		t.Errorf("final solution %v", sol)
	}
	if !sol.Contains(Ident("GO")) {
		t.Errorf("GO must survive (with/inject re-emits): %v", sol)
	}
}

func TestNonLinearPattern(t *testing.T) {
	// The same variable twice requires equal atoms.
	sol := reduceProgram(t, `let pair = replace-one x, x by PAIR in <1, 2, 2, pair>`)
	if !sol.Contains(Ident("PAIR")) {
		t.Fatalf("pair rule did not fire: %v", sol)
	}
	if !sol.Contains(Int(1)) {
		t.Errorf("1 must survive: %v", sol)
	}
	if sol.Contains(Int(2)) {
		t.Errorf("both 2s must be consumed: %v", sol)
	}
}

func TestGuardFailureBacktracks(t *testing.T) {
	// Only the (5, 5) pair satisfies the guard; the matcher must search
	// past failing candidate pairs.
	sol := reduceProgram(t, `
		let eq5 = replace-one x, y by FOUND if x == y && x == 5 in
		<1, 5, 2, 5, eq5>`)
	if !sol.Contains(Ident("FOUND")) {
		t.Fatalf("rule did not fire: %v", sol)
	}
	if sol.Count(Int(5)) != 0 {
		t.Errorf("the two 5s must be consumed: %v", sol)
	}
}

func TestGuardTypeErrorIsFalse(t *testing.T) {
	// x >= y over a string and an int is a type error, which makes the
	// guard false (atoms that cannot react do not react) — not a crash.
	sol := reduceProgram(t, `let max = replace x, y by x if x >= y in <"s", 4, 9, max>`)
	if !sol.Contains(Str("s")) || !sol.Contains(Int(9)) {
		t.Errorf("final solution %v", sol)
	}
	if sol.Contains(Int(4)) {
		t.Errorf("4 should react with 9: %v", sol)
	}
}

func TestTupleAndSolutionPatterns(t *testing.T) {
	// gw_setup-shaped rule: match SRC:<> empty dependency solution.
	sol := reduceProgram(t, `
		let setup = replace-one SRC:<>, IN:<*w> by SRC:<>, PAR:list(*w) in
		<SRC:<>, IN:<"a", "b">, setup>`)
	par, idx := sol.FindTuple(Ident("PAR"))
	if idx < 0 {
		t.Fatalf("no PAR tuple: %v", sol)
	}
	l, ok := par[1].(List)
	if !ok || len(l) != 2 {
		t.Fatalf("PAR payload: %v", par[1])
	}
}

func TestSetupDoesNotFireWithPendingDeps(t *testing.T) {
	sol := reduceProgram(t, `
		let setup = replace-one SRC:<>, IN:<*w> by SRC:<>, PAR:list(*w) in
		<SRC:<T1>, IN:<"a">, setup>`)
	if _, idx := sol.FindTuple(Ident("PAR")); idx != -1 {
		t.Fatalf("setup fired despite non-empty SRC: %v", sol)
	}
	if len(sol.Rules()) != 1 {
		t.Errorf("setup must remain: %v", sol)
	}
}

func TestOmegaCapturesRest(t *testing.T) {
	sol := reduceProgram(t, `
		let grab = replace-one <TAG, *rest> by list(*rest) in
		<<TAG, 1, 2, 3>, grab>`)
	if sol.Len() != 1 {
		t.Fatalf("final solution %v", sol)
	}
	l, ok := sol.At(0).(List)
	if !ok || len(l) != 3 {
		t.Fatalf("captured rest: %v", sol.At(0))
	}
}

func TestOmegaCanBeEmpty(t *testing.T) {
	sol := reduceProgram(t, `
		let grab = replace-one <TAG, *rest> by DONE:list(*rest) in
		<<TAG>, grab>`)
	tp, idx := sol.FindTuple(Ident("DONE"))
	if idx < 0 {
		t.Fatalf("grab did not fire on empty rest: %v", sol)
	}
	if l := tp[1].(List); len(l) != 0 {
		t.Errorf("rest should be empty, got %v", l)
	}
}

func TestArithmeticProducts(t *testing.T) {
	sol := reduceProgram(t, `let sum = replace x, y by x + y if x <= y in <1, 2, 3, 4, sum>`)
	if !sol.Contains(Int(10)) || sol.Len() != 2 {
		t.Errorf("sum result: %v", sol)
	}
}

func TestDivergentProgramDetected(t *testing.T) {
	e := NewEngine()
	e.MaxSteps = 1000
	_, err := e.Run(`let dup = replace x by x, x in <1, dup>`)
	if err == nil {
		t.Fatal("divergent program must be detected")
	}
	if _, ok := err.(*ErrDiverged); !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
}

func TestTraceObservesFirings(t *testing.T) {
	e := NewEngine()
	var fired []string
	e.Trace = func(ev TraceEvent) { fired = append(fired, ev.Rule.Name) }
	if _, err := e.Run(`let max = replace x, y by x if x >= y in <2, 3, max>`); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != "max" {
		t.Errorf("trace: %v", fired)
	}
	if e.Steps() != 1 {
		t.Errorf("steps = %d, want 1", e.Steps())
	}
}

func TestReduceIdempotentOnInertSolution(t *testing.T) {
	e := NewEngine()
	sol, err := e.Run(`let max = replace x, y by x if x >= y in <2, 3, max>`)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Inert() {
		t.Fatal("reduced solution must be inert")
	}
	before := sol.CloneSolution()
	if err := e.Reduce(sol); err != nil {
		t.Fatal(err)
	}
	if !sol.Equal(before) {
		t.Errorf("re-reducing an inert solution changed it")
	}
	if e.Steps() != 0 {
		t.Errorf("re-reduction fired %d steps", e.Steps())
	}
}

func TestNestedTupleSolutionBecomesInert(t *testing.T) {
	// Solutions nested inside tuples (SRC:<...>) must be reduced and
	// marked inert so patterns like SRC:<> can match them.
	sol := NewSolution(Tuple{Ident("SRC"), NewSolution()})
	if err := NewEngine().Reduce(sol); err != nil {
		t.Fatal(err)
	}
	inner := sol.At(0).(Tuple)[1].(*Solution)
	if !inner.Inert() {
		t.Error("tuple-nested solution not marked inert")
	}
}

func TestExternalFunctionCall(t *testing.T) {
	e := NewEngine()
	calls := 0
	e.Funcs.Register("invoke", func(args []Atom) ([]Atom, error) {
		calls++
		return []Atom{Str("result-of-" + string(args[0].(Str)))}, nil
	})
	sol, err := e.Run(`
		let call = replace-one SRV:s, PAR:p by RES:<invoke(s)> in
		<SRV:"s1", PAR:[], call>`)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("invoke called %d times", calls)
	}
	res, idx := sol.FindTuple(Ident("RES"))
	if idx < 0 {
		t.Fatalf("no RES: %v", sol)
	}
	rs := res[1].(*Solution)
	if !rs.Contains(Str("result-of-s1")) {
		t.Errorf("RES = %v", rs)
	}
}

func TestEngineZeroValueUsable(t *testing.T) {
	var e Engine
	sol, err := e.Run(`let max = replace x, y by x if x >= y in <1, 2, max>`)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Contains(Int(2)) {
		t.Errorf("zero-value engine result: %v", sol)
	}
}

// TestPaperWorkflowRulesEndToEnd runs the paper's Fig. 3 workflow with the
// Fig. 4 generic rules through a single centralized interpreter: the full
// T1 -> (T2, T3) -> T4 diamond, with invoke() simulated.
func TestPaperWorkflowRulesEndToEnd(t *testing.T) {
	e := NewEngine()
	invoked := map[string]int{}
	e.Funcs.Register("invoke", func(args []Atom) ([]Atom, error) {
		name := string(args[0].(Str))
		invoked[name]++
		return []Atom{Str("out-" + name)}, nil
	})
	src := `
	let gw_setup = replace-one SRC:<>, IN:<*w> by SRC:<>, PAR:list(*w) in
	let gw_call = replace-one SRC:<>, SRV:s, PAR:p, RES:<*w> by SRC:<>, SRV:s, RES:<invoke(s, p), *w> in
	let gw_pass = replace ti:<RES:<*res>, DST:<tj, *dst>, *oi>, tj:<SRC:<ti, *src>, IN:<*win>, *oj>
	              by ti:<RES:<*res>, DST:<*dst>, *oi>, tj:<SRC:<*src>, IN:<*res, *win>, *oj> in
	<
	  gw_pass,
	  T1:<SRC:<>, DST:<T2, T3>, SRV:"s1", IN:<"input">, RES:<>, gw_setup, gw_call>,
	  T2:<SRC:<T1>, DST:<T4>, SRV:"s2", IN:<>, RES:<>, gw_setup, gw_call>,
	  T3:<SRC:<T1>, DST:<T4>, SRV:"s3", IN:<>, RES:<>, gw_setup, gw_call>,
	  T4:<SRC:<T2, T3>, DST:<>, SRV:"s4", IN:<>, RES:<>, gw_setup, gw_call>
	>`
	sol, err := e.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"s1", "s2", "s3", "s4"} {
		if invoked[s] != 1 {
			t.Errorf("service %s invoked %d times, want 1", s, invoked[s])
		}
	}
	// T4's subsolution must hold the final result.
	var t4 *Solution
	for _, a := range sol.Atoms() {
		if tp, ok := a.(Tuple); ok && len(tp) == 2 && tp[0].Equal(Ident("T4")) {
			t4 = tp[1].(*Solution)
		}
	}
	if t4 == nil {
		t.Fatal("no T4 in final solution")
	}
	res, idx := t4.FindTuple(Ident("RES"))
	if idx < 0 {
		t.Fatal("no RES in T4")
	}
	if !res[1].(*Solution).Contains(Str("out-s4")) {
		t.Errorf("T4 RES = %v", res[1])
	}
}

// TestConcurrentReducesShareNoMatcherState runs independent engines in
// parallel, each reducing its own programs with pooled matcher scratch.
// Every result must be exact, and under -race any matcher handed to two
// reductions at once — or kept by an engine after its Reduce returned —
// shows up as a data race.
func TestConcurrentReducesShareNoMatcherState(t *testing.T) {
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := NewEngine()
			if w%2 == 1 {
				e.Rand = rand.New(rand.NewSource(int64(w)))
			}
			for i := 0; i < rounds; i++ {
				top := 100*(w+1) + i
				src := fmt.Sprintf(`let add = replace A:a, B:b by C:(a+b) in let max = replace x, y by x if x >= y in <%d, 3, %d, 1, <A:%d, B:%d, add>, max>`,
					top, top-1, w, i)
				sol, err := e.Run(src)
				if err != nil {
					t.Error(err)
					return
				}
				var inner *Solution
				for _, a := range sol.Atoms() {
					if s, ok := a.(*Solution); ok {
						inner = s
					}
				}
				if !sol.Contains(Int(top)) || inner == nil || !inner.Contains(Tuple{Ident("C"), Int(w + i)}) {
					t.Errorf("worker %d round %d: %v", w, i, sol)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
