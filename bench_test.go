// Package densevlc's benchmark harness: one sub-benchmark per experiment
// (each table and figure of the paper's evaluation and each extension
// study, regenerated end to end at reduced workload), plus micro-benchmarks
// of the hot paths a deployment exercises per decision: channel-matrix
// construction, SINR evaluation, the frame codec, the NLOS sync exchange,
// the building-scale decision and the receiver-move kernel. The solver
// micro-benchmarks live with their package (internal/alloc). Epoch-level
// performance is measured by bench/ against the shipped runtimes; the
// zero-alloc kernels' //lint:hotpath annotations are held to their
// AllocsPerRun pins by internal/lint's TestHotpathAlignment.
//
// Run with:
//
//	go test -bench=. -benchmem
package densevlc

import (
	"context"
	"testing"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/cluster"
	"densevlc/internal/experiments"
	"densevlc/internal/frame"
	"densevlc/internal/geom"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/units"
	"densevlc/internal/vlcsync"
)

// benchOpts shrinks the experiment workloads so a full -bench=. pass stays
// in CI territory; cmd/experiments runs the paper-scale versions. Workers is
// pinned to 1 so the per-artefact benchmarks stay serial baselines; the
// *Parallel twins below measure the fan-out.
func benchOpts() experiments.Options { return experiments.Options{Seed: 1, Quick: true, Workers: 1} }

func benchExperimentOpts(b *testing.B, name string, opts experiments.Options) {
	b.Helper()
	g, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	for i := 0; i < b.N; i++ {
		if tab := g.Run(opts); len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", name)
		}
	}
}

// BenchmarkExperiments regenerates every paper artefact and extension study
// of experiments.All, one sub-benchmark per experiment name (e.g.
// -bench 'Experiments/fig11$').
func BenchmarkExperiments(b *testing.B) {
	for _, g := range experiments.All() {
		b.Run(g.Name, func(b *testing.B) {
			b.ReportAllocs()
			benchExperimentOpts(b, g.Name, benchOpts())
		})
	}
}

// Serial-vs-parallel pairs for the Monte-Carlo workloads: identical
// workload, Workers 1 vs 4. Compare the pair members' ns/op for the
// fan-out speedup; the exported tables are byte-identical between them
// (see TestParallelDeterminism).

// parallelWorkers is the worker count the *Parallel twins run with.
const parallelWorkers = 4

// fig6PairOpts runs Fig. 6 at paper scale (100 instances) so the
// per-instance channel-matrix work dominates the pool overhead.
func fig6PairOpts(workers int) experiments.Options {
	return experiments.Options{Seed: 1, Instances: 100, Quick: false, Workers: workers}
}

func BenchmarkFig06RandomInstancesSerial(b *testing.B) {
	benchExperimentOpts(b, "fig6", fig6PairOpts(1))
}

func BenchmarkFig06RandomInstancesParallel(b *testing.B) {
	benchExperimentOpts(b, "fig6", fig6PairOpts(parallelWorkers))
}

func BenchmarkFig11HeuristicVsOptimalParallel(b *testing.B) {
	opts := benchOpts()
	opts.Workers = parallelWorkers
	benchExperimentOpts(b, "fig11", opts)
}

func BenchmarkExtAdaptationParallel(b *testing.B) {
	opts := benchOpts()
	opts.Workers = parallelWorkers
	benchExperimentOpts(b, "adaptation", opts)
}

func BenchmarkExtClusterScaleParallel(b *testing.B) {
	opts := benchOpts()
	opts.Workers = parallelWorkers
	benchExperimentOpts(b, "clusterscale", opts)
}

func benchSweep(b *testing.B, workers int) {
	b.Helper()
	env := paperEnv()
	budgets := alloc.BudgetGrid(3.0, 24)
	policy := alloc.Heuristic{Kappa: 1.3, AllowPartial: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := alloc.SweepParallel(context.Background(), env, policy, budgets, workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != len(budgets) {
			b.Fatalf("%d points", len(pts))
		}
	}
}

func BenchmarkAllocSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkAllocSweepParallel(b *testing.B) { benchSweep(b, parallelWorkers) }

// Micro-benchmarks of the per-decision hot paths.

func paperEnv() *alloc.Env {
	set := scenario.Default()
	return set.Env(scenario.Fig7Instance(), nil)
}

func BenchmarkBuildChannelMatrix(b *testing.B) {
	set := scenario.Default()
	emitters := set.Emitters()
	dets := set.Detectors(scenario.Fig7Instance())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := channel.BuildMatrix(emitters, dets, nil); m.N != 36 {
			b.Fatal("bad matrix")
		}
	}
}

func BenchmarkSINR36x4(b *testing.B) {
	env := paperEnv()
	s, err := alloc.Heuristic{Kappa: 1.3}.Allocate(env, 1.19)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := channel.SINR(env.Params, env.H, s); len(out) != 4 {
			b.Fatal("bad sinr")
		}
	}
}

func BenchmarkFrameSerialize(b *testing.B) {
	d := frame.Downlink{
		Eth: frame.Eth{EtherType: frame.EtherTypeVLC},
		PHY: frame.PHY{TXIDMask: frame.MaskOf(7, 13, 6)},
		MAC: frame.MAC{Dst: 0x0101, Protocol: 1, Payload: make([]byte, 200)},
	}
	b.ReportAllocs()
	b.SetBytes(int64(frame.EthHeaderLen + frame.TXIDLen + frame.AirLen(200)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Serialize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	d := frame.Downlink{
		Eth: frame.Eth{EtherType: frame.EtherTypeVLC},
		PHY: frame.PHY{TXIDMask: frame.MaskOf(7)},
		MAC: frame.MAC{Dst: 0x0101, Protocol: 1, Payload: make([]byte, 200)},
	}
	wire, err := d.Serialize()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := frame.DecodeDownlink(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// Building-scale sharded-vs-global pair: the cell-free decision path at
// N=1024 TXs, M=256 RXs (the full clusterscale floor). The pair's ns/op
// ratio is the latency win of the sharded solver.

func floorEnv() (*alloc.Env, units.Watts) {
	rows, cols, m := experiments.ClusterScaleDims(false)
	set := scenario.FloorGrid(rows, cols)
	rx := set.GridRXs(stats.NewRand(1), rows/2, cols/2, 1.0, scenario.InstanceJitter)
	return set.Env(rx, nil), units.Watts(1.19 / 4 * float64(m))
}

func BenchmarkGlobalDecision1024(b *testing.B) {
	env, budget := floorEnv()
	policy := alloc.Heuristic{AllowPartial: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := policy.Allocate(env, budget); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardedDecision1024(b *testing.B) {
	env, budget := floorEnv()
	w := cluster.NewWorkspace(cluster.Spec{Threshold: 0.5},
		alloc.Heuristic{AllowPartial: true}, parallelWorkers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Solve(env, budget); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNLOSSyncExchange(b *testing.B) {
	session, err := vlcsync.NewSession(vlcsync.Config{
		LeaderID: 2, SymbolRate: 100e3, SampleRate: 1e6, GuardTime: 50e-6,
	}, stats.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	f := vlcsync.Follower{SNR: 4, PathDelay: 19e-9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session.Synchronize(f)
	}
}

// floorRXToggle returns the moved receiver's two alternating positions — a
// small in-cell move, the steady-state mobility case.
func floorRXToggle(rx []geom.Vec) (a, bpos geom.Vec) {
	a = rx[7]
	return a, geom.V(a.X+0.04, a.Y, 0)
}

// BenchmarkMoveRX1024 pins the geometry kernel alone: one receiver move on
// the 1024-TX floor and the Env call that refreshes its column, 1024 gains,
// zero allocations (one column stays below the parallel fan-out).
func BenchmarkMoveRX1024(b *testing.B) {
	rows, cols, _ := experiments.ClusterScaleDims(false)
	set := scenario.FloorGrid(rows, cols)
	rx := set.GridRXs(stats.NewRand(1), rows/2, cols/2, 1.0, scenario.InstanceJitter)
	mv := set.NewMover(rx, nil)
	posA, posB := floorRXToggle(rx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			mv.MoveRX(7, posB)
		} else {
			mv.MoveRX(7, posA)
		}
		mv.Env()
	}
}

// BenchmarkMoveRXFloorBatch is floor-churn's refresh shape: 50 of 60
// receivers move on the 240-TX floor, then one Env call refreshes their
// 12,000 gains, split across GOMAXPROCS cores.
func BenchmarkMoveRXFloorBatch(b *testing.B) {
	const fleet, moving = 60, 50
	set := scenario.FloorGrid(15, 16)
	rng := stats.NewRand(1)
	posA := set.UniformRXs(rng, fleet)
	posB := make([]geom.Vec, fleet)
	for i, p := range posA {
		posB[i] = geom.V(p.X+0.04, p.Y, 0)
	}
	mv := set.NewMover(posA, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := posB
		if i%2 == 1 {
			pos = posA
		}
		for s := 0; s < moving; s++ {
			mv.MoveRX(s, pos[s])
		}
		mv.Env()
	}
}
