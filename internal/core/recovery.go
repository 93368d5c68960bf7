package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/executor"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/journal"
	"ginflow/internal/mq"
	"ginflow/internal/trace"
	"ginflow/internal/workflow"
)

// This file implements crash recovery: a fresh Manager over the same
// journal directory rebuilds each unfinished session from its snapshot
// + delta log and re-enters the supervisor loop without re-executing
// completed work (DESIGN.md "Durability & recovery").
//
// Replay reuses the live machinery end to end: journaled payloads fold
// into the session's space through the same full-snapshot/STATDELTA
// apply path (with the incremental MultisetHash verification) that
// consumed them the first time, and the rebuilt per-task states seed
// the replacement agents. A task whose journaled state carries RES
// restarts inert on the invocation path — its IN/PAR were consumed by
// the recorded gw_setup/gw_call firings — so its service is not invoked
// again; a task journaled mid-flight re-invokes, exactly as the paper's
// single-agent recovery does.
//
// Rebuilding state is not enough: messages in flight at the crash are
// gone with the broker. recoverSpecs therefore reconciles the wiring —
// any task still waiting on a source it has not heard from is re-added
// to that source's DST set (gw_send then re-fires once the source holds
// a result; duplicate PASS deliveries are ignored by gw_recv, the
// paper's own idempotence), and a triggered adaptation whose ADAPT
// marker was lost in flight is re-injected at the destination so
// mv_src can still rewire it.

// Recover scans the journal for unfinished sessions, rebuilds each one
// and resumes it. The returned sessions behave like freshly submitted
// ones (Wait/Status/Events/Cancel); each emits a SessionRecovered event
// on its stream and on the manager bus. Finished sessions found in the
// journal are reclaimed. Service implementations cannot be persisted,
// so the caller supplies the registry again; opts apply to every
// recovered session on top of its journaled submission config. ctx
// bounds all recovered sessions, like the submitting context does for
// Submit. Sessions whose journal cannot be rebuilt are skipped and
// reported in the joined error alongside the successfully recovered
// ones.
func (m *Manager) Recover(ctx context.Context, services *agent.Registry, opts ...SubmitOption) ([]*Session, error) {
	if m.journal == nil {
		return nil, ErrNoJournal
	}
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return nil, ErrManagerClosed
	}
	ids, err := m.journal.SessionIDs()
	if err != nil {
		return nil, err
	}
	var sessions []*Session
	var errs []error
	for _, id := range ids {
		st, err := m.journal.ReadSession(id)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if st.Done {
			m.journal.RemoveSession(id)
			continue
		}
		s, err := m.recoverSession(ctx, st, services, opts)
		if err != nil {
			errs = append(errs, fmt.Errorf("core: recover session %d: %w", id, err))
			continue
		}
		sessions = append(sessions, s)
	}
	return sessions, errors.Join(errs...)
}

// recoverSession rebuilds one journaled session and starts it.
func (m *Manager) recoverSession(ctx context.Context, st *journal.SessionState, services *agent.Registry, opts []SubmitOption) (*Session, error) {
	def, err := workflow.FromJSON(st.Meta.Workflow)
	if err != nil {
		return nil, err
	}
	if err := checkServices(def, services); err != nil {
		return nil, err
	}
	sub := SubmitConfig{
		Timeout:      time.Duration(st.Meta.TimeoutNS),
		CollectTrace: st.Meta.CollectTrace,
		FailureP:     st.Meta.FailureP,
		FailureT:     st.Meta.FailureT,
		Executor:     executor.Kind(st.Meta.Executor),
	}
	for _, opt := range opts {
		opt(&sub)
	}
	if sub.Timeout <= 0 {
		sub.Timeout = m.cfg.Timeout
	}
	exec, err := m.sessionExecutor(sub.Executor)
	if err != nil {
		return nil, err
	}
	if exec == nil {
		return nil, fmt.Errorf("core: journaled session has no distributed executor")
	}

	runCtx, cancel := context.WithCancelCause(ctx)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel(ErrManagerClosed)
		return nil, ErrManagerClosed
	}
	if _, active := m.active[st.Meta.ID]; active {
		m.mu.Unlock()
		cancel(ErrCancelled)
		return nil, fmt.Errorf("core: session %d is still active", st.Meta.ID)
	}
	s := newSession(m, st.Meta.ID, def, services, sub)
	s.cancel = cancel
	s.exec = exec
	s.recovered = true
	if st.Meta.ID > m.nextID {
		m.nextID = st.Meta.ID
	}
	m.active[s.id] = s
	m.wg.Add(1)
	m.mu.Unlock()

	fail := func(err error) (*Session, error) {
		m.mu.Lock()
		delete(m.active, s.id)
		m.mu.Unlock()
		m.wg.Done()
		cancel(ErrCancelled)
		return nil, err
	}

	// Replay: fold the snapshot and every status record after it into
	// the fresh space through the live apply path (full snapshots
	// replace, deltas patch under fingerprint verification).
	for _, payload := range st.Payloads {
		if len(payload) == 0 {
			continue
		}
		s.space.ApplyMessage(mq.Message{Atoms: payload})
	}
	// Replay advanced the space's per-task version gate to the journaled
	// (incarnation, push) high-water marks; the resumed agents restart at
	// incarnation 0 and push 1, so the gate must reopen or every live
	// push would be dropped as stale.
	s.space.ResetVersions()

	// Re-seed the fresh broker's replay logs with the journaled inbox
	// history: an agent that crashes after resume can still replay the
	// messages its pre-crash incarnations consumed in the old process.
	if len(st.Inbox) > 0 {
		if lr, ok := m.broker.(mq.LogRestorer); ok {
			byTopic := map[string][]mq.Message{}
			var order []string
			for _, rec := range st.Inbox {
				if _, seen := byTopic[rec.Topic]; !seen {
					order = append(order, rec.Topic)
				}
				byTopic[rec.Topic] = append(byTopic[rec.Topic], mq.Message{Topic: rec.Topic, Atoms: rec.Atoms})
			}
			for _, topic := range order {
				lr.RestoreLog(topic, byTopic[topic])
			}
		}
	}

	// Resume write-through: the rebuilt state is checkpointed into a
	// fresh segment before the session runs, superseding the replayed
	// segments; the inbox history is re-journaled into the fresh head.
	meta, err := sessionMeta(s)
	if err != nil {
		return fail(err)
	}
	jw, err := m.journal.ResumeSession(meta, s.space.Snapshot().Atoms(), st.Inbox)
	if err != nil {
		return fail(err)
	}
	s.jw = jw

	s.recorder.Record(trace.SessionRecovered, "", 0,
		fmt.Sprintf("replayed %d status records", st.StatusRecords))
	m.cluster.Clock().GoCtx(runCtx, func(ctx context.Context) {
		defer m.wg.Done()
		s.run(ctx)
	})
	return s, nil
}

// recoverSpecs rewrites the translated agent specs of a recovered
// session: journaled task states replace the pristine template locals
// (keeping the template's NAME and rules — status pushes strip both),
// lost in-flight deliveries are compensated by re-adding a destination
// to its source's DST set whenever the destination still waits on that
// source, and a triggered adaptation whose ADAPT marker never reached
// its destination is re-injected there. states maps task name to its
// rebuilt sub-solution (mutation-safe snapshots); triggered lists the
// adaptation IDs whose TRIGGER markers the journal preserved.
func recoverSpecs(def *workflow.Definition, specs []workflow.AgentSpec, states map[string]*hocl.Solution, triggered []string) error {
	plans, err := def.AdaptationPlans()
	if err != nil {
		return err
	}
	triggeredSet := map[string]bool{}
	for _, id := range triggered {
		triggeredSet[id] = true
	}

	// Active tasks participate in completion: every main task, plus the
	// replacement tasks of triggered adaptations. Untriggered
	// replacements stay idle and must not be wired into anyone's DST.
	active := map[string]bool{}
	for _, t := range def.Tasks {
		active[t.ID] = true
	}
	for i := range plans {
		if !triggeredSet[plans[i].ID] {
			continue
		}
		for _, r := range plans[i].ReplacementIDs {
			active[r] = true
		}
	}

	// Seed each agent's local solution from its journaled state.
	local := map[string]*hocl.Solution{}
	for i := range specs {
		name := specs[i].Task.Name
		if st, ok := states[name]; ok {
			specs[i].Local = seedLocal(specs[i].Local, st)
		}
		local[name] = specs[i].Local
	}

	// Effective pending-source sets: for the destination of a triggered
	// adaptation whose mv_src has not applied yet (its SRC still lists a
	// faulty final), ADAPT is re-injected and the post-mv_src rewrite is
	// anticipated, so the reconciliation below wires the replacement
	// finals that will feed it.
	pending := map[string][]string{}
	for name, sol := range local {
		if active[name] {
			pending[name] = hoclflow.PendingSources(sol)
		}
	}
	for i := range plans {
		p := &plans[i]
		if !triggeredSet[p.ID] {
			continue
		}
		dest := p.Destination
		destLocal, ok := local[dest]
		if !ok {
			continue
		}
		if !intersects(pending[dest], p.FaultyFinals) {
			// The journaled SRC no longer lists a faulty final: mv_src
			// already applied before the crash. seedLocal re-armed the
			// one-shot rule from the pristine template, and a faulty task
			// journaled mid-flight will re-invoke, fail again and
			// re-broadcast ADAPT — letting the re-armed rule re-fire would
			// wipe an IN list that may already hold consumed replacement
			// results the (retired) senders will never re-send, stalling
			// the destination forever. Disarm it.
			removeRule(destLocal, hoclflow.MvSrcRuleName(p.ID))
			continue
		}
		destLocal.Add(hoclflow.AdaptMarker(p.ID))
		pending[dest] = rewriteSources(pending[dest], p.FaultyFinals, p.ReplacementFinals)
	}

	// Wiring reconciliation: any active task still waiting on a source
	// must be in that source's DST set — the crash may have swallowed
	// the PASS message after the source retired the edge. Re-sending to
	// a task that already consumed the dependency is the protocol's
	// no-op.
	for name, srcs := range pending {
		for _, src := range srcs {
			srcLocal, ok := local[src]
			if !ok || src == name {
				continue
			}
			addDestination(srcLocal, name)
		}
	}
	return nil
}

// seedLocal rebuilds an agent-local solution from a journaled task
// state: the template's NAME atom and rules (stripped from status
// pushes) wrap the recorded data atoms. One-shot rules consumed by the
// recorded firings cannot re-fire: their trigger atoms (IN for
// gw_setup, PAR for gw_call) were consumed by those same firings, which
// is what keeps completed services from being invoked again.
func seedLocal(template *hocl.Solution, state *hocl.Solution) *hocl.Solution {
	var atoms []hocl.Atom
	if nameTuple, idx := template.FindTuple(hoclflow.KeyNAME); idx >= 0 {
		atoms = append(atoms, nameTuple)
	}
	atoms = append(atoms, state.Atoms()...)
	for _, r := range template.Rules() {
		atoms = append(atoms, r)
	}
	return hocl.NewSolution(atoms...)
}

// removeRule strips the named rule atom from a local solution. Recovery
// uses it to disarm one-shot adaptation rules whose firing is already
// reflected in the journaled state: seedLocal re-arms every template
// rule, which is correct for the gateway rules (their trigger atoms
// were consumed with them) but not for mv_src, whose trigger — a live
// ADAPT marker — can arrive again after resume.
func removeRule(sol *hocl.Solution, name string) {
	for i, a := range sol.Atoms() {
		if r, ok := a.(*hocl.Rule); ok && r.Name == name {
			sol.RemoveIndices([]int{i})
			return
		}
	}
}

// addDestination ensures the local solution's DST set contains dst. A
// DST tuple that lacks it is replaced by a new one rather than written
// into: the template's attribute sub-solutions are inert and shared by
// reference with every agent built from it.
func addDestination(sol *hocl.Solution, dst string) {
	tp, idx := sol.FindTuple(hoclflow.KeyDST)
	if idx < 0 || len(tp) != 2 {
		sol.Add(hocl.Tuple{hoclflow.KeyDST, hocl.NewSolution(hocl.Ident(dst))})
		return
	}
	inner, ok := tp[1].(*hocl.Solution)
	if !ok || inner.Contains(hocl.Ident(dst)) {
		return
	}
	dsts := append(slices.Clip(inner.Atoms()), hocl.Ident(dst))
	sol.ReplaceAt(idx, hocl.Tuple{hoclflow.KeyDST, hocl.NewSolution(dsts...)})
}

func intersects(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// rewriteSources anticipates mv_src: faulty finals out, replacement
// finals in (deduplicated, order-preserving).
func rewriteSources(srcs, remove, add []string) []string {
	removeSet := map[string]bool{}
	for _, r := range remove {
		removeSet[r] = true
	}
	seen := map[string]bool{}
	var out []string
	for _, s := range srcs {
		if removeSet[s] || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	for _, a := range add {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
