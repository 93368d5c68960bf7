package workflow

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
)

// CentralProgram is the HOCL translation of a workflow for centralized
// execution: one global multiset reduced by a single interpreter, as in
// the paper's §III. Funcs holds the generated external functions
// (mv_src rewrites) that must be registered on the interpreter alongside
// invoke().
type CentralProgram struct {
	Global *hocl.Solution
	Funcs  map[string]hocl.Func
}

// TriggerSpec describes one adaptation trigger owned by a (potentially
// faulty) task's agent in decentralised mode: on ERROR, the agent calls
// FuncName, which must deliver ADAPT:"AdaptationID" to every agent in
// Notify and record TRIGGER:"AdaptationID" in the shared space (§IV-A).
type TriggerSpec struct {
	AdaptationID string
	FuncName     string
	Notify       []string
}

// AgentSpec is the deployment unit for one service agent: the task
// metadata, its agent-local HOCL solution (rules injected), generated
// external functions, and the adaptation triggers it owns.
type AgentSpec struct {
	Task     hoclflow.TaskAttrs
	Local    *hocl.Solution
	Funcs    map[string]hocl.Func
	Triggers []TriggerSpec
}

// rolePlan aggregates, per task, the adaptation artifacts it hosts.
type rolePlan struct {
	rules    []*hocl.Rule
	funcs    map[string]hocl.Func
	triggers []TriggerSpec
}

func newRolePlan() *rolePlan { return &rolePlan{funcs: map[string]hocl.Func{}} }

// adaptationRoles distributes each adaptation's generated rules to the
// tasks that host them: add_dst to sources, mv_src (+ rewrite function)
// to the destination, triggers to every faulty task. The central flag
// selects the centralized trigger (a global rule, returned separately)
// or the decentralised local trigger.
func (d *Definition) adaptationRoles(central bool) (map[string]*rolePlan, []*hocl.Rule, error) {
	roles := map[string]*rolePlan{}
	role := func(id string) *rolePlan {
		if roles[id] == nil {
			roles[id] = newRolePlan()
		}
		return roles[id]
	}
	var globalRules []*hocl.Rule

	for i := range d.Adaptations {
		a := &d.Adaptations[i]
		p, err := a.plan(d)
		if err != nil {
			return nil, nil, fmt.Errorf("workflow: %w", err)
		}
		for _, src := range p.sources {
			dsts := append([]string(nil), p.addDst[src]...)
			sort.Strings(dsts)
			role(src).rules = append(role(src).rules, hoclflow.AddDstRule(a.ID, src, dsts))
		}
		dst := role(p.destination)
		dst.rules = append(dst.rules, hoclflow.MvSrcRule(a.ID))
		dst.funcs[hoclflow.MvSrcFuncName(a.ID)] = hoclflow.MvSrcFunc(p.faultyFinals, p.replacementFinals)

		notify := append(append([]string(nil), p.sources...), p.destination)
		for _, f := range a.Faulty {
			if central {
				globalRules = append(globalRules,
					hoclflow.CentralTriggerRule(a.ID, f, p.sources, p.destination))
			} else {
				role(f).rules = append(role(f).rules, hoclflow.LocalTriggerRule(a.ID, f))
				role(f).triggers = append(role(f).triggers, TriggerSpec{
					AdaptationID: a.ID,
					FuncName:     hoclflow.TriggerFuncName(a.ID),
					Notify:       notify,
				})
			}
		}
	}
	return roles, globalRules, nil
}

// taskAttrs builds the hoclflow attributes for every deployable task:
// main tasks (Src derived from the DAG) and replacement tasks (Src/Dst
// from the normalised adaptation wiring).
func (d *Definition) taskAttrs() []hoclflow.TaskAttrs {
	// One pass over the edges builds every main task's Src, in the
	// sorted order SrcOf returns.
	preds := map[string][]string{}
	for _, t := range d.Tasks {
		for _, dst := range t.Dst {
			preds[dst] = append(preds[dst], t.ID)
		}
	}
	for _, src := range preds {
		sort.Strings(src)
	}
	var out []hoclflow.TaskAttrs
	for _, t := range d.Tasks {
		out = append(out, hoclflow.TaskAttrs{
			Name:    t.ID,
			Src:     preds[t.ID],
			Dst:     append([]string(nil), t.Dst...),
			Service: t.Service,
			In:      strAtoms(t.In),
		})
	}
	for i := range d.Adaptations {
		a := &d.Adaptations[i]
		srcOf, dstOf := a.wiring()
		for _, r := range a.Replacement {
			out = append(out, hoclflow.TaskAttrs{
				Name:    r.ID,
				Src:     srcOf[r.ID],
				Dst:     dstOf[r.ID],
				Service: r.Service,
				In:      strAtoms(r.In),
			})
		}
	}
	return out
}

func strAtoms(ss []string) []hocl.Atom {
	out := make([]hocl.Atom, len(ss))
	for i, s := range ss {
		out[i] = hocl.Str(s)
	}
	return out
}

// TranslateCentral produces the centralized HOCL program: the Fig. 3
// global multiset with the Fig. 4 generic rules and the Fig. 7
// adaptation rules injected ("the phase of rules injection ... takes
// place in a transparent way before the actual execution", §IV-D).
func (d *Definition) TranslateCentral() (*CentralProgram, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	roles, globalRules, err := d.adaptationRoles(true)
	if err != nil {
		return nil, err
	}
	global := hocl.NewSolution(hoclflow.GwPass())
	for _, r := range globalRules {
		global.Add(r)
	}
	prog := &CentralProgram{Global: global, Funcs: map[string]hocl.Func{}}
	for _, attrs := range d.taskAttrs() {
		rules := []*hocl.Rule{hoclflow.GwSetup(), hoclflow.GwCall()}
		if rp := roles[attrs.Name]; rp != nil {
			rules = append(rules, rp.rules...)
			for name, fn := range rp.funcs {
				prog.Funcs[name] = fn
			}
		}
		global.Add(hoclflow.TaskTuple(attrs.Name, attrs.SubSolution(rules...)))
	}
	return prog, nil
}

// agentRules is the decentralised generic rule set every agent-local
// solution carries, built once. Its capacity equals its length, so a
// task that also hosts adaptation rules appends into a fresh copy and
// the shared slice is never written.
var agentRules = sync.OnceValue(func() []*hocl.Rule {
	return slices.Clip([]*hocl.Rule{
		hoclflow.GwSetup(), hoclflow.GwCall(),
		hoclflow.GwSend(), hoclflow.GwRecv(), hoclflow.GwGc(),
	})
})

// TranslateAgents produces one AgentSpec per deployable task (main and
// replacement) for decentralised execution: local solutions carry the
// decentralised generic rules (gw_setup, gw_call, gw_send, gw_recv,
// gw_gc) plus the adaptation rules for the roles the task plays. Specs
// of tasks without an adaptation role have nil Funcs and Triggers.
func (d *Definition) TranslateAgents() ([]AgentSpec, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	roles, _, err := d.adaptationRoles(false)
	if err != nil {
		return nil, err
	}
	attrs := d.taskAttrs()
	specs := make([]AgentSpec, len(attrs))
	for i, ta := range attrs {
		rules := agentRules()
		spec := AgentSpec{Task: ta}
		if rp := roles[ta.Name]; rp != nil {
			rules = append(rules, rp.rules...)
			spec.Funcs = rp.funcs
			spec.Triggers = rp.triggers
		}
		spec.Local = ta.LocalSolution(rules...)
		specs[i] = spec
	}
	return specs, nil
}
