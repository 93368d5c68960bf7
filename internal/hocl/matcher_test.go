package hocl

import (
	"math/rand"
	"sync"
	"testing"
)

// matchOnce builds a rule from src, matches it against the solution
// (after reducing sub-solutions to inertness) and returns the match.
func matchOnce(t *testing.T, ruleSrc string, sol *Solution) *Match {
	t.Helper()
	r := MustParseRuleBody("r", ruleSrc, nil)
	sol.Add(r)
	if err := NewEngine().reduceNestedOnly(sol); err != nil {
		t.Fatal(err)
	}
	return MatchRule(r, sol, sol.Len()-1, NewFuncs(), nil)
}

// reduceNestedOnly reduces every nested solution to inertness without
// firing top-level rules — test scaffolding for matcher-level assertions.
func (e *Engine) reduceNestedOnly(sol *Solution) error {
	for _, sub := range sol.nestedSolutions() {
		if err := e.Reduce(sub); err != nil {
			return err
		}
	}
	return nil
}

func TestMatcherBindsTupleKeyAcrossElements(t *testing.T) {
	// gw_pass-style cross-element non-linear binding: the destination
	// name found in the first tuple must select the second tuple.
	sol := NewSolution(
		Tuple{Ident("T1"), NewSolution(Tuple{Ident("DST"), NewSolution(Ident("T2"))})},
		Tuple{Ident("T2"), NewSolution(Tuple{Ident("SRC"), NewSolution(Ident("T1"))})},
		Tuple{Ident("T3"), NewSolution(Tuple{Ident("SRC"), NewSolution(Ident("T9"))})},
	)
	m := matchOnce(t, `replace ti:<DST:<tj, *d>>, tj:<SRC:<ti, *s>> by MATCHED`, sol)
	if m == nil {
		t.Fatal("no match")
	}
	ti, _ := m.Env.Atom("ti")
	tj, _ := m.Env.Atom("tj")
	if !ti.Equal(Ident("T1")) || !tj.Equal(Ident("T2")) {
		t.Errorf("bindings ti=%v tj=%v", ti, tj)
	}
}

func TestMatcherBacktracksAcrossWrongCandidates(t *testing.T) {
	// The first candidate for x (10) cannot complete the match (no
	// matching partner); the matcher must revisit.
	sol := NewSolution(
		Tuple{Ident("A"), Int(10)},
		Tuple{Ident("A"), Int(3)},
		Tuple{Ident("B"), Int(3)},
	)
	m := matchOnce(t, `replace A:x, B:x by MATCHED`, sol)
	if m == nil {
		t.Fatal("no match despite valid assignment")
	}
	x, _ := m.Env.Atom("x")
	if !x.Equal(Int(3)) {
		t.Errorf("x = %v, want 3", x)
	}
}

func TestMatcherRestBindingIsSharedNonLinearly(t *testing.T) {
	// The same omega name in two solution patterns requires multiset-
	// equal rests.
	sol := NewSolution(
		NewSolution(Ident("K"), Int(1), Int(2)),
		NewSolution(Ident("K"), Int(2), Int(1)),
	)
	if m := matchOnce(t, `replace <K, *w>, <K, *w> by SAME`, sol); m == nil {
		t.Fatal("equal rests must match non-linear omega")
	}
	sol2 := NewSolution(
		NewSolution(Ident("K"), Int(1)),
		NewSolution(Ident("K"), Int(2)),
	)
	if m := matchOnce(t, `replace <K, *w>, <K, *w> by SAME`, sol2); m != nil {
		t.Fatal("different rests matched non-linear omega")
	}
}

func TestMatcherListPattern(t *testing.T) {
	sol := NewSolution(List{Int(1), Str("x"), Bool(true)})
	m := matchOnce(t, `replace [a, b, c] by c, b, a`, sol)
	if m == nil {
		t.Fatal("list pattern did not match")
	}
	b, _ := m.Env.Atom("b")
	if !b.Equal(Str("x")) {
		t.Errorf("b = %v", b)
	}
	// Arity must be exact.
	sol2 := NewSolution(List{Int(1), Int(2)})
	if m := matchOnce(t, `replace [a, b, c] by a`, sol2); m != nil {
		t.Fatal("list arity mismatch matched")
	}
}

func TestMatcherEmptySolutionPattern(t *testing.T) {
	empty := NewSolution()
	sol := NewSolution(Tuple{Ident("SRC"), empty})
	if m := matchOnce(t, `replace SRC:<> by READY`, sol); m == nil {
		t.Fatal("SRC:<> did not match empty inert solution")
	}
	nonEmpty := NewSolution(Tuple{Ident("SRC"), NewSolution(Ident("T1"))})
	if m := matchOnce(t, `replace SRC:<> by READY`, nonEmpty); m != nil {
		t.Fatal("SRC:<> matched non-empty solution")
	}
}

func TestMatcherConsumedIndicesAreDistinct(t *testing.T) {
	sol := NewSolution(Int(5), Int(5))
	m := matchOnce(t, `replace x, y by PAIR if x == y`, sol)
	if m == nil {
		t.Fatal("no match")
	}
	if len(m.Consumed) != 2 || m.Consumed[0] == m.Consumed[1] {
		t.Errorf("consumed = %v", m.Consumed)
	}
}

func TestMatcherRuleDoesNotConsumeItself(t *testing.T) {
	// A one-atom pattern must not match the firing rule's own atom.
	sol := NewSolution()
	r := MustParseRuleBody("lonely", "replace x by x, x", nil)
	sol.Add(r)
	if m := MatchRule(r, sol, 0, NewFuncs(), nil); m != nil {
		t.Fatal("rule consumed itself")
	}
}

func TestMatcherRuleCanConsumeOtherRules(t *testing.T) {
	// ...but an unconstrained variable does bind other rule atoms.
	other := MustParseRuleBody("other", "replace y by y if false", nil)
	sol := NewSolution(other)
	m := matchOnce(t, `replace x by CONSUMED`, sol)
	if m == nil {
		t.Fatal("variable did not bind a rule atom")
	}
	x, _ := m.Env.Atom("x")
	if _, isRule := x.(*Rule); !isRule {
		t.Errorf("x = %T, want rule", x)
	}
}

func TestMatcherDeepNesting(t *testing.T) {
	// Three levels of nesting with omegas at two levels.
	ground := mustParseGround(t, `BOX:<LID:<GEM, 1, 2>, 3>`)
	sol := NewSolution(ground)
	m := matchOnce(t, `replace BOX:<LID:<GEM, *inner>, *outer> by list(*inner), list(*outer)`, sol)
	if m == nil {
		t.Fatal("deep pattern did not match")
	}
	inner, _ := m.Env.Rest("inner")
	outer, _ := m.Env.Rest("outer")
	if len(inner) != 2 || len(outer) != 1 {
		t.Errorf("inner=%v outer=%v", inner, outer)
	}
}

// TestNestedMatchOrderVariesAcrossSeeds pins the nested-ordering fix:
// the engine's chemical non-determinism must reach sub-solution
// candidate choice, not just the top level. The grab rule picks one
// element out of a six-atom sub-solution; with natural nested order
// every seed picked element 1.
func TestNestedMatchOrderVariesAcrossSeeds(t *testing.T) {
	run := func(seed int64) Atom {
		t.Helper()
		e := NewEngine()
		e.Rand = rand.New(rand.NewSource(seed))
		sol, err := e.Run(`let grab = replace-one <x, *w> by x in <<1, 2, 3, 4, 5, 6>, grab>`)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Len() != 1 {
			t.Fatalf("seed %d: final solution %v, want one picked atom", seed, sol)
		}
		return sol.At(0)
	}
	picked := map[string]bool{}
	for seed := int64(0); seed < 24; seed++ {
		picked[run(seed).String()] = true
	}
	if len(picked) < 2 {
		t.Fatalf("nested candidate choice never varied across 24 seeds: always %v", picked)
	}
	// Reproducibility: the same seed must pick the same atom.
	for seed := int64(0); seed < 4; seed++ {
		if a, b := run(seed), run(seed); !a.Equal(b) {
			t.Fatalf("seed %d not reproducible: %v vs %v", seed, a, b)
		}
	}
}

// TestRuleProgramConcurrentCompile hits one rule from many engines at
// once: the lazily compiled matcher program is cached on the shared
// *Rule, so first use must be race-free (the -race CI job is the real
// assertion here).
func TestRuleProgramConcurrentCompile(t *testing.T) {
	r := MustParseRuleBody("pair", "replace A:x, B:x by MATCHED if x == x", nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sol := NewSolution(
				Tuple{Ident("A"), Int(g)},
				Tuple{Ident("B"), Int(g)},
			)
			if m := MatchRule(r, sol, -1, NewFuncs(), nil); m == nil {
				t.Errorf("goroutine %d: no match", g)
			}
		}(g)
	}
	wg.Wait()
}

// TestMatcherBacktracksAcrossSubSolutionChoices forces backtracking to
// revisit a *completed* sub-solution match after a later top-level
// pattern fails: the machine must keep finished contexts revisitable.
func TestMatcherBacktracksAcrossSubSolutionChoices(t *testing.T) {
	// k must bind 2 (picked inside the first sub-solution) because only
	// then does the second pattern find a partner.
	sol := NewSolution(
		NewSolution(Int(1), Int(2)),
		Tuple{Ident("NEED"), Int(2)},
	)
	m := matchOnce(t, `replace <k, *w>, NEED:k by HIT`, sol)
	if m == nil {
		t.Fatal("no match despite valid nested assignment")
	}
	k, _ := m.Env.Atom("k")
	if !k.Equal(Int(2)) {
		t.Errorf("k = %v, want 2", k)
	}
	w, _ := m.Env.Rest("w")
	if len(w) != 1 || !w[0].Equal(Int(1)) {
		t.Errorf("rest w = %v, want [1]", w)
	}
}

// TestMatcherReuseAcrossMatches drives one engine-owned matcher through
// many differently-shaped matches in sequence, checking the pooled
// machine state (frames, trail, contexts, used flags) never leaks
// between matches.
func TestMatcherReuseAcrossMatches(t *testing.T) {
	e := NewEngine()
	programs := []struct {
		src  string
		want Atom
	}{
		{`let p = replace <K, *w>, <K, *w> by SAME in <<K, 1, 2>, <K, 2, 1>, p>`, Ident("SAME")},
		{`let q = replace a:<RES:<r, *res>> by r in <T1:<RES:<9>>, q>`, Int(9)},
		{`let s = replace [a, b], a by b in <[1, 2], 1, s>`, Int(2)},
	}
	for round := 0; round < 3; round++ {
		for _, p := range programs {
			sol, err := e.Run(p.src)
			if err != nil {
				t.Fatal(err)
			}
			if !sol.Contains(p.want) {
				t.Errorf("round %d: %s reduced to %v, want %v produced", round, p.src, sol, p.want)
			}
		}
	}
}

func TestMatcherOrderPermutationStillFindsMatch(t *testing.T) {
	// With an adversarial candidate order the matcher still finds the
	// only valid pair.
	sol := NewSolution(Int(1), Int(2), Int(3), Int(4), Int(100), Int(100))
	r := MustParseRuleBody("pair", "replace x, y by HIT if x == y", nil)
	sol.Add(r)
	if err := NewEngine().reduceNestedOnly(sol); err != nil {
		t.Fatal(err)
	}
	// Reverse order.
	order := make([]int, sol.Len())
	for i := range order {
		order[i] = sol.Len() - 1 - i
	}
	if m := MatchRule(r, sol, sol.Len()-1, NewFuncs(), order); m == nil {
		t.Fatal("no match under permuted order")
	}
}
