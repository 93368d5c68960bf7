package workflow_test

import (
	"reflect"
	"sync"
	"testing"

	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/montage"
	"ginflow/internal/workflow"
)

// TestTranslateSrcMatchesSrcOf: the predecessor index the translation
// builds in one pass gives every main task the Src list SrcOf derives
// one task at a time, in the same order.
func TestTranslateSrcMatchesSrcOf(t *testing.T) {
	spec := workflow.DefaultDiamondSpec(4, 3, true)
	for name, def := range map[string]*workflow.Definition{
		"diamond": workflow.Diamond(workflow.DefaultDiamondSpec(5, 4, false)),
		"montage": montage.Workflow(),
		"adapted": workflow.WithBodyReplacement(workflow.Diamond(spec), spec, false, "workalt"),
	} {
		specs, err := def.TranslateAgents()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		main := 0
		for _, s := range specs {
			if _, ok := def.TaskByID(s.Task.Name); !ok {
				continue // replacement task: Src comes from the adaptation wiring
			}
			main++
			if want := def.SrcOf(s.Task.Name); !reflect.DeepEqual(s.Task.Src, want) {
				t.Errorf("%s: %s Src = %v, SrcOf = %v", name, s.Task.Name, s.Task.Src, want)
			}
		}
		if main != def.TaskCount() {
			t.Errorf("%s: checked %d main tasks, want %d", name, main, def.TaskCount())
		}
	}
}

// TestTranslateAgentsReduceConcurrently runs a fully connected diamond
// decentralised by hand: every agent of one TranslateAgents output
// reduces on its own goroutine, passing results over channels. The
// agents share the generic rules by reference, so under -race this
// checks that sharing (their compile-once programs included) is safe.
func TestTranslateAgentsReduceConcurrently(t *testing.T) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(3, 3, true))
	specs, err := def.TranslateAgents()
	if err != nil {
		t.Fatal(err)
	}
	inbox := map[string]chan hocl.Atom{}
	for _, s := range specs {
		inbox[s.Task.Name] = make(chan hocl.Atom, len(specs))
	}
	var wg sync.WaitGroup
	for _, s := range specs {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := s.Local.SnapshotSolution()
			e := hocl.NewEngine()
			e.Funcs.Register(hoclflow.FnInvoke, func(args []hocl.Atom) ([]hocl.Atom, error) {
				return []hocl.Atom{hocl.Str("out-" + s.Task.Name)}, nil
			})
			e.Funcs.Register(hoclflow.FnSend, func(args []hocl.Atom) ([]hocl.Atom, error) {
				dst := string(args[0].(hocl.Ident))
				inbox[dst] <- hoclflow.PassMessage(s.Task.Name, hocl.SnapshotAtoms(args[1:]))
				return nil, nil
			})
			for {
				if err := e.Reduce(local); err != nil {
					t.Errorf("%s: %v", s.Task.Name, err)
					return
				}
				if hoclflow.StatusOf(local) == hoclflow.StatusCompleted {
					return // every result was sent within the reduction
				}
				local.Add(<-inbox[s.Task.Name])
			}
		}()
	}
	wg.Wait()
	for name, ch := range inbox {
		if len(ch) != 0 {
			t.Errorf("%s: %d messages never consumed", name, len(ch))
		}
	}
}
