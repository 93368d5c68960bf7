package hocl

import (
	"fmt"
	"math/rand"
	"sync"
)

// DefaultMaxSteps bounds a single Reduce call; programs that exceed it are
// assumed divergent. Workflow solutions fire a handful of rules per
// message, so the bound is generous.
const DefaultMaxSteps = 1_000_000

// TraceEvent describes one rule firing, for debugging and tests.
type TraceEvent struct {
	Rule  *Rule
	Depth int // nesting depth of the solution the rule fired in
}

// Engine reduces solutions: it applies rules until no rule can fire
// anywhere, at which point the solution (and, recursively, every
// sub-solution) is inert.
//
// The zero value is usable: built-in functions only, deterministic
// left-to-right atom selection, DefaultMaxSteps.
type Engine struct {
	// Funcs resolves external function calls; nil falls back to a
	// built-ins-only registry.
	Funcs *Funcs
	// Rand, when non-nil, shuffles candidate order each firing so the
	// reduction order is chemically non-deterministic (but reproducible
	// for a fixed seed). Nil keeps natural order.
	Rand *rand.Rand
	// MaxSteps bounds the number of rule firings per Reduce (0 means
	// DefaultMaxSteps).
	MaxSteps int
	// Trace, when non-nil, observes every firing.
	Trace func(TraceEvent)

	steps int

	// ruleOrd / candOrd are reusable permutation buffers for the
	// chemically non-deterministic (Rand != nil) mode.
	ruleOrd []int
	candOrd []int
}

// matcherPool recycles matcher scratch (reservation flags, binding,
// backtracking stacks, expression machine) across engines. A matcher's
// state is only live within one fireOne candidate attempt, so one
// instance serves a whole sequential Reduce: Reduce takes it from the
// pool on entry and puts it back on return, and nothing — engine,
// Match or binding — may keep it after that. Ten thousand mostly idle
// agents therefore share the few matchers that are reducing at once
// instead of each growing its own. An idle pooled matcher still points
// at the last solution it matched until its next reset; the pool drops
// idle entries within two garbage collections, which bounds that.
var matcherPool = sync.Pool{New: func() any { return new(matcher) }}

// NewEngine returns an engine with the built-in function registry.
func NewEngine() *Engine { return &Engine{Funcs: NewFuncs()} }

// ErrDiverged reports that reduction exceeded the step budget.
type ErrDiverged struct{ Steps int }

func (e *ErrDiverged) Error() string {
	return fmt.Sprintf("hocl: reduction exceeded %d steps (divergent program?)", e.Steps)
}

// Reduce rewrites sol until it is inert. It is not safe for concurrent
// use on the same solution; each service agent owns one engine and one
// local solution (paper §IV-A), which is exactly how GinFlow avoids
// coherency problems.
//
// The matcher scratch comes from a pool for the length of the call. A
// panicking external function abandons it to the collector rather than
// returning it mid-match.
func (e *Engine) Reduce(sol *Solution) error {
	m := matcherPool.Get().(*matcher)
	e.steps = 0
	err := e.reduce(m, sol, 0)
	// Flush the pass's locally accumulated counts to the process-wide
	// metrics — three atomic adds per Reduce, nothing per firing.
	metReduceCalls.Inc()
	metRuleFirings.Add(int64(e.steps))
	metGuardRejections.Add(m.guardRejects)
	m.guardRejects = 0
	matcherPool.Put(m)
	return err
}

// Steps returns the number of rule firings performed by the last Reduce.
func (e *Engine) Steps() int { return e.steps }

func (e *Engine) funcs() *Funcs {
	if e.Funcs == nil {
		e.Funcs = NewFuncs()
	}
	return e.Funcs
}

func (e *Engine) maxSteps() int {
	if e.MaxSteps > 0 {
		return e.MaxSteps
	}
	return DefaultMaxSteps
}

func (e *Engine) reduce(m *matcher, sol *Solution, depth int) error {
	if sol.Inert() {
		return nil
	}
	for {
		// Depth-first: inner programs must finish before their results
		// are observable by outer rules (sub-solution inertness law).
		// Solutions nested inside tuples and lists (e.g. SRC:<...>) count:
		// the workflow rules match on their inertness. The nested list is
		// cached on the solution and invalidated by its generation
		// counter, and sub-solutions already marked inert are skipped
		// without a recursive call.
		for _, sub := range sol.nestedSolutions() {
			if sub.Inert() {
				continue
			}
			if err := e.reduce(m, sub, depth+1); err != nil {
				return err
			}
		}
		fired, err := e.fireOne(m, sol, depth)
		if err != nil {
			return err
		}
		if !fired {
			sol.SetInert(true)
			return nil
		}
	}
}

// fireOne tries every rule in sol and applies the first match found,
// reporting whether anything fired. Rule positions come from the
// solution's cached rule index, so atom-heavy solutions are not rescanned
// per firing; the matcher (Reduce's pooled scratch) and the permutation
// buffers are reused across attempts.
func (e *Engine) fireOne(m *matcher, sol *Solution, depth int) (bool, error) {
	rules := sol.ruleIndices()
	if len(rules) == 0 {
		return false, nil
	}
	ruleOrd := e.permInto(&e.ruleOrd, len(rules))
	for k := range rules {
		ri := k
		if ruleOrd != nil {
			ri = ruleOrd[k]
		}
		idx := rules[ri]
		r := sol.At(idx).(*Rule)
		// The candidate permutation covers the top level; the matcher
		// draws per-context permutations from Rand itself, so nested
		// solution patterns see the same chemical non-determinism.
		m.reset(sol, e.funcs(), e.permInto(&e.candOrd, sol.Len()), e.Rand)
		match := m.matchRule(r, idx)
		if match == nil {
			continue
		}
		e.steps++
		if e.steps > e.maxSteps() {
			return false, &ErrDiverged{Steps: e.maxSteps()}
		}
		if err := r.applyVM(sol, match, idx, e.funcs(), &m.vm); err != nil {
			return false, err
		}
		if e.Trace != nil {
			e.Trace(TraceEvent{Rule: r, Depth: depth})
		}
		return true, nil
	}
	return false, nil
}

// permInto writes a fresh random permutation of [0,n) into the reusable
// buffer when Rand is set, or returns nil (natural order) otherwise.
func (e *Engine) permInto(buf *[]int, n int) []int {
	if e.Rand == nil {
		return nil
	}
	s := *buf
	if cap(s) < n {
		s = make([]int, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := e.Rand.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
	*buf = s
	return s
}

// Run parses an HOCL program and reduces it to inertia, returning the
// final solution. It is the one-call entry point used by the hocl CLI and
// the examples.
func (e *Engine) Run(src string) (*Solution, error) {
	sol, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := e.Reduce(sol); err != nil {
		return nil, err
	}
	return sol, nil
}
