package ginflow

// Benchmarks, one per table/figure of the paper's evaluation (§V), plus
// ablation benchmarks for the design choices called out in DESIGN.md.
// Every figure benchmark runs a representative configuration of its
// experiment per iteration and reports the modelled execution time as a
// custom metric (model_s/op); the full paper-scale sweeps live in
// cmd/ginflow-bench, whose output is recorded in EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/bench"
	"ginflow/internal/cluster"
	"ginflow/internal/core"
	"ginflow/internal/executor"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/journal"
	"ginflow/internal/montage"
	"ginflow/internal/mq"
	"ginflow/internal/obs"
	"ginflow/internal/space"
	"ginflow/internal/workflow"
)

// benchScale is the default model-time scale: 1 ms of real time per
// model second keeps every modelled sleep above the host timer
// granularity, so the reported model_s metrics are honest. Iterations
// are consequently tens of milliseconds to ~1 s of real time each.
const benchScale = time.Millisecond

func benchServices() *agent.Registry {
	reg := agent.NewRegistry()
	reg.RegisterNoop(bench.MeshTaskDuration, "split", "work", "merge", "workalt")
	return reg
}

func runDiamondOnce(b *testing.B, h, v int, fully bool, cfg core.Config) *core.Report {
	b.Helper()
	def := workflow.Diamond(workflow.DefaultDiamondSpec(h, v, fully))
	rep, err := core.Run(context.Background(), def, benchServices(), cfg)
	if err != nil {
		b.Fatalf("run: %v", err)
	}
	return rep
}

func benchCluster(nodes int) cluster.Config {
	return cluster.Config{Nodes: nodes, CoresPerNode: 24, Scale: benchScale}
}

// BenchmarkFig12SimpleDiamond regenerates one cell of Fig. 12(a): a 6x6
// simple-connected diamond on SSH + ActiveMQ.
func BenchmarkFig12SimpleDiamond(b *testing.B) {
	var model float64
	for i := 0; i < b.N; i++ {
		rep := runDiamondOnce(b, 6, 6, false, core.Config{
			Executor: executor.KindSSH,
			Broker:   mq.KindQueue,
			Cluster:  benchCluster(25),
		})
		model += rep.ExecTime
	}
	b.ReportMetric(model/float64(b.N), "model_s/op")
}

// BenchmarkFig12FullDiamond regenerates one cell of Fig. 12(b): the
// fully-connected flavour of the same diamond.
func BenchmarkFig12FullDiamond(b *testing.B) {
	var model float64
	for i := 0; i < b.N; i++ {
		rep := runDiamondOnce(b, 6, 6, true, core.Config{
			Executor: executor.KindSSH,
			Broker:   mq.KindQueue,
			Cluster:  benchCluster(25),
		})
		model += rep.ExecTime
	}
	b.ReportMetric(model/float64(b.N), "model_s/op")
}

// BenchmarkFig13Adaptiveness regenerates one bar of Fig. 13: a 4x4
// diamond whose whole body is swapped on-the-fly after the last mesh
// service fails (simple-to-simple scenario); the reported metric is the
// with/without-adaptiveness ratio.
func BenchmarkFig13Adaptiveness(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		spec := workflow.DefaultDiamondSpec(4, 4, false)
		base := runDiamondOnce(b, 4, 4, false, core.Config{
			Executor: executor.KindSSH,
			Broker:   mq.KindQueue,
			Cluster:  benchCluster(25),
		})

		def := workflow.WithBodyReplacement(workflow.Diamond(spec), spec, false, "workalt")
		last, _ := def.TaskByID(workflow.LastMeshTask(spec))
		last.Service = "flaky"
		services := benchServices()
		services.RegisterFailing("flaky", bench.MeshTaskDuration)
		adaptive, err := core.Run(context.Background(), def, services, core.Config{
			Executor: executor.KindSSH,
			Broker:   mq.KindQueue,
			Cluster:  benchCluster(25),
		})
		if err != nil {
			b.Fatalf("adaptive run: %v", err)
		}
		ratio += adaptive.ExecTime / base.ExecTime
	}
	b.ReportMetric(ratio/float64(b.N), "ratio")
}

// BenchmarkFig14ExecutorMiddleware regenerates Fig. 14's bar groups: a
// 4x4 diamond under each executor × broker combination on 10 nodes,
// reporting deployment and execution model time separately.
func BenchmarkFig14ExecutorMiddleware(b *testing.B) {
	for _, ex := range []executor.Kind{executor.KindSSH, executor.KindMesos} {
		for _, br := range []mq.Kind{mq.KindQueue, mq.KindLog} {
			b.Run(fmt.Sprintf("%s/%s", ex, br), func(b *testing.B) {
				var deploy, exec float64
				for i := 0; i < b.N; i++ {
					rep := runDiamondOnce(b, 4, 4, false, core.Config{
						Executor: ex,
						Broker:   br,
						Cluster:  benchCluster(10),
					})
					deploy += rep.DeployTime
					exec += rep.ExecTime
				}
				b.ReportMetric(deploy/float64(b.N), "deploy_model_s/op")
				b.ReportMetric(exec/float64(b.N), "exec_model_s/op")
			})
		}
	}
}

// BenchmarkFig15MontageGeneration covers Fig. 15's artifacts: building,
// validating and translating the 118-task Montage workflow (the figure
// itself is static workload structure; regenerate the full panels with
// cmd/ginflow-bench -fig 15).
func BenchmarkFig15MontageGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		def := montage.Workflow()
		if err := def.Validate(); err != nil {
			b.Fatal(err)
		}
		if _, err := def.TranslateAgents(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16Resilience regenerates one bar of Fig. 16: Montage on
// Mesos + Kafka with p=0.5, T=0 failure injection, recovered by inbox
// replay.
func BenchmarkFig16Resilience(b *testing.B) {
	var model, failures float64
	for i := 0; i < b.N; i++ {
		reg := agent.NewRegistry()
		montage.RegisterServices(reg)
		rep, err := core.Run(context.Background(), montage.Workflow(), reg, core.Config{
			Executor: executor.KindMesos,
			Broker:   mq.KindLog,
			Cluster:  benchCluster(25),
			FailureP: 0.5,
			FailureT: 0,
			Timeout:  5 * time.Minute,
		})
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		model += rep.ExecTime
		failures += float64(rep.Failures)
	}
	b.ReportMetric(model/float64(b.N), "model_s/op")
	b.ReportMetric(failures/float64(b.N), "failures/op")
}

// --- Ablation benchmarks ----------------------------------------------------

// BenchmarkAblationMatchCost supports the §V-A claim that "the
// complexity of the pattern matching process depends on the size of the
// solution": one getMax firing over solutions of growing size.
func BenchmarkAblationMatchCost(b *testing.B) {
	for _, size := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("atoms-%d", size), func(b *testing.B) {
			rule := hocl.MustParseRuleBody("max", "replace x, y by x if x >= y", nil)
			atoms := make([]hocl.Atom, size+1)
			for i := 0; i < size; i++ {
				atoms[i] = hocl.Int(i)
			}
			atoms[size] = rule
			funcs := hocl.NewFuncs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol := hocl.NewSolution(atoms...)
				if m := hocl.MatchRule(rule, sol, size, funcs, nil); m == nil {
					b.Fatal("no match")
				}
			}
		})
	}
}

// BenchmarkAblationReduceGetMax measures full reductions of the paper's
// §III-A program at growing multiset sizes.
func BenchmarkAblationReduceGetMax(b *testing.B) {
	for _, size := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("atoms-%d", size), func(b *testing.B) {
			rule := hocl.MustParseRuleBody("max", "replace x, y by x if x >= y", nil)
			atoms := make([]hocl.Atom, size+1)
			for i := 0; i < size; i++ {
				atoms[i] = hocl.Int(i * 13 % size)
			}
			atoms[size] = rule
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol := hocl.NewSolution(atoms...)
				e := hocl.NewEngine()
				if err := e.Reduce(sol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBrokerThroughput compares the raw publish->deliver
// path of the two brokers with latency modelling disabled: the Kafka-like
// broker pays for the persisted log.
func BenchmarkAblationBrokerThroughput(b *testing.B) {
	clock := cluster.NewClock(time.Nanosecond)
	for _, kind := range []mq.Kind{mq.KindQueue, mq.KindLog} {
		b.Run(string(kind), func(b *testing.B) {
			var broker mq.Broker
			switch kind {
			case mq.KindQueue:
				qb := mq.NewQueueBroker(clock, 1e-9)
				qb.SetServiceTime(0)
				broker = qb
			default:
				lb := mq.NewLogBroker(clock, 1e-9)
				lb.SetServiceTime(0)
				broker = lb
			}
			sub, err := broker.Subscribe("t")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := broker.Publish("t", "RES:<42>"); err != nil {
					b.Fatal(err)
				}
				<-sub.C()
			}
		})
	}
}

// BenchmarkAblationPassMode compares the two gw_pass designs (§IV-A): a
// single interpreter applying the global rule versus decentralised
// agents exchanging messages. Real time is dominated by the modelled
// sleeps; the model_s metric shows the coordination difference.
func BenchmarkAblationPassMode(b *testing.B) {
	for _, mode := range []executor.Kind{executor.KindCentralized, executor.KindSSH} {
		b.Run(string(mode), func(b *testing.B) {
			var model float64
			for i := 0; i < b.N; i++ {
				rep := runDiamondOnce(b, 4, 4, false, core.Config{
					Executor: mode,
					Broker:   mq.KindQueue,
					Cluster:  benchCluster(10),
				})
				model += rep.ExecTime
			}
			b.ReportMetric(model/float64(b.N), "model_s/op")
		})
	}
}

// BenchmarkAblationWireFormat measures the HOCL text wire format: the
// cost of encoding and decoding one result-transfer molecule.
func BenchmarkAblationWireFormat(b *testing.B) {
	msg := hoclflow.PassMessage("T1", []hocl.Atom{
		hocl.Str("some-result-payload"),
		hocl.List{hocl.Int(1), hocl.Int(2), hocl.Int(3)},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text := msg.String()
		if _, err := hocl.ParseMolecules(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTranslate measures rule injection (§IV-D "the phase
// of rules injection takes place in a transparent way"): translating a
// 10x10 diamond to agent specs.
func BenchmarkAblationTranslate(b *testing.B) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(10, 10, false))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := def.TranslateAgents(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAgentSetup measures per-session agent deployment: translating
// a 10x10 diamond to agent specs and building one agent incarnation per
// spec, before any message moves. Guarded by cmd/benchguard
// (internal/bench/baseline.json): what agents hold in common — the
// built-in function table, the generic rules, the settled SRC/DST/IN/RES
// sub-solutions of the template — must stay shared, not copied per
// agent.
func BenchmarkAgentSetup(b *testing.B) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(10, 10, false))
	clus := cluster.New(cluster.Config{Nodes: 4, CoresPerNode: 4, Virtual: true})
	services := benchServices()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		specs, err := def.TranslateAgents()
		if err != nil {
			b.Fatal(err)
		}
		for _, spec := range specs {
			agent.New(agent.Config{Spec: spec, Cluster: clus, Services: services})
		}
	}
}

// --- Hot-path benchmarks (message path and reduction engine) ---------------

// BenchmarkReduceDiamondRules measures the agent-side reduction of one
// fully-connected mesh task: the local solution carries the four gw rules,
// receives a PASS message from each of its sources, assembles parameters,
// invokes and forwards. This is the per-message CPU cost of enactment.
func BenchmarkReduceDiamondRules(b *testing.B) {
	const fan = 8
	srcs := make([]string, fan)
	dsts := make([]string, fan)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("S%d", i+1)
		dsts[i] = fmt.Sprintf("D%d", i+1)
	}
	attrs := hoclflow.TaskAttrs{Name: "W1", Src: srcs, Dst: dsts, Service: "work"}
	tmpl := attrs.LocalSolution(hoclflow.GwSetup(), hoclflow.GwCall(), hoclflow.GwSend(), hoclflow.GwRecv())
	passes := make([]hocl.Atom, fan)
	for i, s := range srcs {
		passes[i] = hoclflow.PassMessage(s, []hocl.Atom{hocl.Str("out-" + s)})
	}
	engine := hocl.NewEngine()
	engine.Funcs.Register(hoclflow.FnInvoke, func([]hocl.Atom) ([]hocl.Atom, error) {
		return []hocl.Atom{hocl.Str("res")}, nil
	})
	engine.Funcs.Register(hoclflow.FnSend, func([]hocl.Atom) ([]hocl.Atom, error) { return nil, nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Shell + shared ingest is the agent's instantiation path: a fresh
		// top-level shell over the template's inert attributes, and wire
		// atoms added by reference.
		sol := tmpl.Shell()
		sol.Add(passes...)
		if err := engine.Reduce(sol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeAtoms measures the binary atom codec on a
// representative journal record: one task status tuple (the full-
// snapshot push of a mid-workflow task) plus a STATDELTA tuple — the
// two payload shapes the durable session journal appends on its hot
// path. Guarded by cmd/benchguard (internal/bench/baseline.json):
// journaling cost per status record must stay flat.
func BenchmarkEncodeAtoms(b *testing.B) {
	status := hoclflow.TaskAttrs{
		Name: "N3_4", Src: []string{"N1_3", "N2_3", "N3_3"},
		Dst: []string{"N3_5", "N4_5"}, Service: "work",
		In: []hocl.Atom{hocl.Str("plate-003")},
	}.SubSolution()
	delta := hoclflow.StatusDelta{
		Task: "N3_4", Base: 0x1234, Next: 0x5678,
		RemovedHashes: []uint64{1, 2, 3},
		Added:         []hocl.Atom{hocl.Tuple{hocl.Ident("RES"), hocl.NewSolution(hocl.Str("out-work"))}},
		Inert:         true,
	}
	payload := []hocl.Atom{hocl.Tuple{hocl.Ident("N3_4"), status}, delta.Atom()}
	var sink []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = hocl.AppendAtoms(sink[:0], payload)
	}
	if _, err := hocl.DecodeAtoms(sink); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJournalAppendStatus measures the full journaling hot path —
// binary encode + frame + fingerprint + file write — for one status
// record, end to end against a real file. Allocations must stay at
// zero: the writer reuses its encoding and framing buffers.
func BenchmarkJournalAppendStatus(b *testing.B) {
	j, err := journal.Open(journal.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	w, err := j.CreateSession(journal.SessionMeta{ID: 1, Workflow: []byte(`{"tasks":[]}`)})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	status := hoclflow.TaskAttrs{
		Name: "N3_4", Src: []string{"N1_3", "N2_3"}, Dst: []string{"N3_5"},
		Service: "work",
	}.SubSolution()
	payload := []hocl.Atom{hocl.Tuple{hocl.Ident("N3_4"), status}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.AppendStatus(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMessageRoundTrip measures the two wire hops of decentralised
// enactment: a status push (agent -> broker -> space) and a result pass
// (agent -> broker -> peer agent ingest).
func BenchmarkMessageRoundTrip(b *testing.B) {
	clock := cluster.NewClock(time.Nanosecond)
	broker := mq.NewQueueBroker(clock, 1e-9)
	broker.SetServiceTime(0)
	sp := space.New()
	spaceSub, err := broker.Subscribe(space.DefaultTopic)
	if err != nil {
		b.Fatal(err)
	}
	inbox, err := broker.Subscribe("sa.T2")
	if err != nil {
		b.Fatal(err)
	}
	status := hoclflow.TaskAttrs{Name: "T1", Dst: []string{"T2"}, Service: "work"}.SubSolution()
	statusTuple := hocl.Tuple{hocl.Ident("T1"), status}
	pass := hoclflow.PassMessage("T1", []hocl.Atom{hocl.Str("out-T1"), hocl.List{hocl.Int(1), hocl.Int(2)}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Status push: agent snapshot -> broker -> space apply, all
		// structural — the payload is never rendered or re-parsed.
		if err := broker.PublishAtoms(space.DefaultTopic, []hocl.Atom{hocl.Snapshot(statusTuple)}); err != nil {
			b.Fatal(err)
		}
		sm := <-spaceSub.C()
		if !sp.ApplyMessage(sm) {
			b.Fatal("space rejected payload")
		}
		// Result pass: pre-built molecules -> broker -> peer ingest by
		// reference.
		if err := broker.PublishAtoms("sa.T2", []hocl.Atom{pass}); err != nil {
			b.Fatal(err)
		}
		m := <-inbox.C()
		if len(m.Atoms) != 1 || !hocl.Shareable(m.Atoms[0]) {
			b.Fatalf("bad structural ingest: %v", m.Atoms)
		}
	}
}

// BenchmarkInstrumentedMessageRoundTrip is BenchmarkMessageRoundTrip
// with the broker's metrics wired (SetMetrics before traffic, the
// production shape): per-delivery counter increments, pending-depth
// gauge moves and batch-size observations ride the same two wire hops.
// The ceiling matches the uninstrumented benchmark's — instrumentation
// must cost atomics, never allocations.
func BenchmarkInstrumentedMessageRoundTrip(b *testing.B) {
	clock := cluster.NewClock(time.Nanosecond)
	broker := mq.NewQueueBroker(clock, 1e-9)
	broker.SetServiceTime(0)
	broker.SetMetrics(obs.NewRegistry())
	sp := space.New()
	spaceSub, err := broker.Subscribe(space.DefaultTopic)
	if err != nil {
		b.Fatal(err)
	}
	inbox, err := broker.Subscribe("sa.T2")
	if err != nil {
		b.Fatal(err)
	}
	status := hoclflow.TaskAttrs{Name: "T1", Dst: []string{"T2"}, Service: "work"}.SubSolution()
	statusTuple := hocl.Tuple{hocl.Ident("T1"), status}
	pass := hoclflow.PassMessage("T1", []hocl.Atom{hocl.Str("out-T1"), hocl.List{hocl.Int(1), hocl.Int(2)}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := broker.PublishAtoms(space.DefaultTopic, []hocl.Atom{hocl.Snapshot(statusTuple)}); err != nil {
			b.Fatal(err)
		}
		sm := <-spaceSub.C()
		if !sp.ApplyMessage(sm) {
			b.Fatal("space rejected payload")
		}
		if err := broker.PublishAtoms("sa.T2", []hocl.Atom{pass}); err != nil {
			b.Fatal(err)
		}
		m := <-inbox.C()
		if len(m.Atoms) != 1 || !hocl.Shareable(m.Atoms[0]) {
			b.Fatalf("bad structural ingest: %v", m.Atoms)
		}
	}
}

// BenchmarkFig12LargeDiamond extends Fig. 12 beyond the paper's mesh
// sizes: a 12x12 diamond (146 tasks; the fully-connected flavour moves
// ~2000 messages) on SSH + ActiveMQ. Before the zero-reparse message
// path, meshes this size were dominated by render/re-parse CPU.
func BenchmarkFig12LargeDiamond(b *testing.B) {
	for _, fully := range []bool{false, true} {
		name := "simple"
		if fully {
			name = "fully-connected"
		}
		b.Run(name, func(b *testing.B) {
			var model float64
			for i := 0; i < b.N; i++ {
				rep := runDiamondOnce(b, 12, 12, fully, core.Config{
					Executor: executor.KindSSH,
					Broker:   mq.KindQueue,
					Cluster:  benchCluster(25),
				})
				model += rep.ExecTime
			}
			b.ReportMetric(model/float64(b.N), "model_s/op")
		})
	}
}
