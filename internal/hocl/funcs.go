package hocl

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Func is an external function callable from rule guards and products.
// It receives evaluated argument atoms and returns the atoms to splice
// into the enclosing molecule list. The paper's HOCL interpreter calls
// Java methods this way (§III-A); GinFlow uses external functions for
// list construction, service invocation (invoke) and message sending.
//
// The args slice is only valid for the duration of the call: the
// compiled evaluator passes a window of its pooled value stack. A Func
// that needs to keep the arguments must copy them (returning args, or a
// subslice of it, as the result is fine — the evaluator reads results
// before reusing the window).
type Func func(args []Atom) ([]Atom, error)

// Funcs is a registry of external functions. The zero value is empty and
// ready to use; NewFuncs returns a registry that also resolves the
// built-ins. Registries are safe for concurrent lookup and registration.
//
// The built-ins live in one immutable table shared by every registry
// NewFuncs returns: a registry holds only its own registrations and
// falls back to the shared table on lookup, so ten thousand agents
// carry ten thousand small maps of agent-bound functions, not ten
// thousand copies of the standard library. A registration shadows a
// built-in of the same name in that registry only.
type Funcs struct {
	mu   sync.RWMutex
	m    map[string]Func
	base map[string]Func // shared built-in table (read-only); nil for the zero value
}

// builtinTable is the shared built-in table, built on first use and
// never written afterwards.
var builtinTable = sync.OnceValue(func() map[string]Func {
	var f Funcs
	f.registerBuiltins()
	f.registerListBuiltins()
	return f.m
})

// NewFuncs returns a registry resolving the built-in functions:
//
//	list(a1, ..., an)   -> [a1, ..., an]          (paper footnote 4)
//	len(x)              -> element count of a list, solution, tuple or string
//	head(l), tail(l)    -> first element / remainder of a list
//	append(l, a...)     -> list with atoms appended
//	concat(l1, l2)      -> concatenated lists
//	str(a...)           -> string rendering of atoms, concatenated
//	flatten(l)          -> splices a list's elements into the molecule list
//
// plus the numeric and list utilities of registerListBuiltins.
func NewFuncs() *Funcs {
	return &Funcs{base: builtinTable()}
}

// Register adds (or replaces) a function under the given name.
func (f *Funcs) Register(name string, fn Func) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.m == nil {
		f.m = map[string]Func{}
	}
	f.m[name] = fn
}

// Lookup returns the function registered under name, falling back to
// the built-ins.
func (f *Funcs) Lookup(name string) (Func, bool) {
	f.mu.RLock()
	fn, ok := f.m[name]
	f.mu.RUnlock()
	if !ok {
		fn, ok = f.base[name]
	}
	return fn, ok
}

// Names returns the sorted names the registry resolves: its own
// registrations and the built-ins.
func (f *Funcs) Names() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	names := make([]string, 0, len(f.m)+len(f.base))
	for n := range f.m {
		names = append(names, n)
	}
	for n := range f.base {
		if _, shadowed := f.m[n]; !shadowed {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func (f *Funcs) registerBuiltins() {
	f.Register("list", func(args []Atom) ([]Atom, error) {
		return []Atom{List(append([]Atom(nil), args...))}, nil
	})
	f.Register("len", func(args []Atom) ([]Atom, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("len: want 1 argument, got %d", len(args))
		}
		switch v := args[0].(type) {
		case List:
			return []Atom{Int(len(v))}, nil
		case Tuple:
			return []Atom{Int(len(v))}, nil
		case *Solution:
			return []Atom{Int(v.Len())}, nil
		case Str:
			return []Atom{Int(len(v))}, nil
		default:
			return nil, fmt.Errorf("len: cannot measure %s", args[0].Kind())
		}
	})
	f.Register("head", func(args []Atom) ([]Atom, error) {
		l, err := oneList("head", args)
		if err != nil {
			return nil, err
		}
		if len(l) == 0 {
			return nil, fmt.Errorf("head: empty list")
		}
		return []Atom{l[0]}, nil
	})
	f.Register("tail", func(args []Atom) ([]Atom, error) {
		l, err := oneList("tail", args)
		if err != nil {
			return nil, err
		}
		if len(l) == 0 {
			return nil, fmt.Errorf("tail: empty list")
		}
		return []Atom{List(append([]Atom(nil), l[1:]...))}, nil
	})
	f.Register("append", func(args []Atom) ([]Atom, error) {
		if len(args) < 1 {
			return nil, fmt.Errorf("append: want at least 1 argument")
		}
		l, ok := args[0].(List)
		if !ok {
			return nil, fmt.Errorf("append: first argument is %s, want list", args[0].Kind())
		}
		out := append(append(List(nil), l...), args[1:]...)
		return []Atom{out}, nil
	})
	f.Register("concat", func(args []Atom) ([]Atom, error) {
		var out List
		for i, a := range args {
			l, ok := a.(List)
			if !ok {
				return nil, fmt.Errorf("concat: argument %d is %s, want list", i+1, a.Kind())
			}
			out = append(out, l...)
		}
		return []Atom{out}, nil
	})
	f.Register("str", func(args []Atom) ([]Atom, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			if s, ok := a.(Str); ok {
				parts[i] = string(s)
			} else {
				parts[i] = a.String()
			}
		}
		return []Atom{Str(strings.Join(parts, ""))}, nil
	})
	f.Register("flatten", func(args []Atom) ([]Atom, error) {
		l, err := oneList("flatten", args)
		if err != nil {
			return nil, err
		}
		return append([]Atom(nil), l...), nil
	})
}

func oneList(fn string, args []Atom) (List, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("%s: want 1 argument, got %d", fn, len(args))
	}
	l, ok := args[0].(List)
	if !ok {
		return nil, fmt.Errorf("%s: argument is %s, want list", fn, args[0].Kind())
	}
	return l, nil
}
