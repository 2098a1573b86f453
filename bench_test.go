// Package densevlc's benchmark harness: one benchmark per table and figure
// of the paper's evaluation (regenerating the artefact end to end at
// reduced workload), plus micro-benchmarks of the hot paths a deployment
// exercises per decision: channel-matrix construction, SINR evaluation, the
// ranking heuristic, the optimal solver, frame codec and the NLOS sync
// exchange.
//
// Run with:
//
//	go test -bench=. -benchmem
package densevlc

import (
	"context"
	"testing"
	"time"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/clock"
	"densevlc/internal/cluster"
	"densevlc/internal/experiments"
	"densevlc/internal/frame"
	"densevlc/internal/geom"
	"densevlc/internal/node"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/units"
	"densevlc/internal/vlcsync"
	"densevlc/internal/workload"
)

// benchOpts shrinks the experiment workloads so a full -bench=. pass stays
// in CI territory; cmd/experiments runs the paper-scale versions. Workers is
// pinned to 1 so the per-artefact benchmarks stay serial baselines; the
// *Parallel twins below measure the fan-out.
func benchOpts() experiments.Options { return experiments.Options{Seed: 1, Quick: true, Workers: 1} }

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	benchExperimentOpts(b, name, benchOpts())
}

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

// One benchmark per paper artefact.

func BenchmarkTable1Parameters(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkTable2Hardware(b *testing.B)         { benchExperiment(b, "table2") }
func BenchmarkTable3FrameStructure(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkTable6Placements(b *testing.B)       { benchExperiment(b, "table6") }
func BenchmarkFig07Instance(b *testing.B)          { benchExperiment(b, "fig7") }
func BenchmarkFig02OperatingModes(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkFig03IVCurve(b *testing.B)           { benchExperiment(b, "fig3") }
func BenchmarkFig04TaylorError(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig05Illumination(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig06RandomInstances(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig08ThroughputVsPower(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig09SwingWaterfall(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig10SwingCDF(b *testing.B)          { benchExperiment(b, "fig10") }
func BenchmarkFig11HeuristicVsOptimal(b *testing.B) {
	b.ReportAllocs() // bench.sh's alignment gate keys on allocs_per_op
	benchExperiment(b, "fig11")
}
func BenchmarkSec5Speedup(b *testing.B)          { benchExperiment(b, "speedup") }
func BenchmarkFig12SyncDelay(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkTable4SyncError(b *testing.B)      { benchExperiment(b, "table4") }
func BenchmarkTable5Iperf(b *testing.B)          { benchExperiment(b, "table5") }
func BenchmarkFig18Scenario1(b *testing.B)       { benchExperiment(b, "fig18") }
func BenchmarkFig19Scenario2(b *testing.B)       { benchExperiment(b, "fig19") }
func BenchmarkFig20Scenario3(b *testing.B)       { benchExperiment(b, "fig20") }
func BenchmarkFig21PowerEfficiency(b *testing.B) { benchExperiment(b, "fig21") }
func BenchmarkExtDensitySweep(b *testing.B)      { benchExperiment(b, "density") }
func BenchmarkExtPrecoding(b *testing.B)         { benchExperiment(b, "precoding") }
func BenchmarkExtOFDM(b *testing.B)              { benchExperiment(b, "ofdm") }
func BenchmarkExtAdaptation(b *testing.B)        { benchExperiment(b, "adaptation") }
func BenchmarkExtNLOSRobustness(b *testing.B)    { benchExperiment(b, "nlosrobustness") }
func BenchmarkSec71FrontEnd(b *testing.B)        { benchExperiment(b, "frontend") }
func BenchmarkExtBlockage(b *testing.B)          { benchExperiment(b, "blockage") }
func BenchmarkExtAdaptiveKappa(b *testing.B)     { benchExperiment(b, "adaptivekappa") }
func BenchmarkExtRXOrientation(b *testing.B)     { benchExperiment(b, "orientation") }
func BenchmarkExtClusterScale(b *testing.B)      { benchExperiment(b, "clusterscale") }

// Serial-vs-parallel pairs for the Monte-Carlo workloads: identical
// workload, Workers 1 vs 4. scripts/bench.sh runs these pairs and records
// the speedups in BENCH_pr3.json; the exported tables are byte-identical
// between the pair members (see TestParallelDeterminism).

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

func BenchmarkHeuristicDecision(b *testing.B) {
	env := paperEnv()
	policy := alloc.Heuristic{Kappa: 1.3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := policy.Allocate(env, 1.19); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalDecision(b *testing.B) {
	env := paperEnv()
	policy := alloc.Optimal{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := policy.Allocate(env, 1.19); err != nil {
			b.Fatal(err)
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
// N=1024 TXs, M=256 RXs (the full clusterscale floor). scripts/bench.sh
// records the pair's ratio as the headline latency win of the sharded
// solver; SteadyState pins the dirty-cache fast path.

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

func BenchmarkShardedSteadyState1024(b *testing.B) {
	env, budget := floorEnv()
	w := cluster.NewWorkspace(cluster.Spec{Threshold: 0.5},
		alloc.Heuristic{AllowPartial: true}, 1)
	if _, err := w.Solve(env, budget); err != nil {
		b.Fatal(err)
	}
	clean := func(int) bool { return false }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.SolveDirty(env, budget, clean); err != nil {
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

// Incremental re-allocation pairs: the cost of one receiver moving on the
// building-scale floor (N=1024, M=256), from-scratch vs the dirty-tracking
// path. scripts/bench.sh records the ratio as BENCH_pr9.json's headline.

// floorRXToggle returns the moved receiver's two alternating positions — a
// small in-cell move, the steady-state mobility case.
func floorRXToggle(rx []geom.Vec) (a, bpos geom.Vec) {
	a = rx[7]
	return a, geom.V(a.X+0.04, a.Y, 0)
}

func BenchmarkSingleRXMoveFullResolve(b *testing.B) {
	rows, cols, m := experiments.ClusterScaleDims(false)
	set := scenario.FloorGrid(rows, cols)
	rx := set.GridRXs(stats.NewRand(1), rows/2, cols/2, 1.0, scenario.InstanceJitter)
	budget := units.Watts(1.19 / 4 * float64(m))
	w := cluster.NewWorkspace(cluster.Spec{Threshold: 0.5}, alloc.Heuristic{AllowPartial: true}, 1)
	posA, posB := floorRXToggle(rx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			rx[7] = posB
		} else {
			rx[7] = posA
		}
		env := set.Env(rx, nil) // full channel rebuild
		if _, err := w.Solve(env, budget); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSingleRXMoveIncremental(b *testing.B) {
	rows, cols, m := experiments.ClusterScaleDims(false)
	set := scenario.FloorGrid(rows, cols)
	rx := set.GridRXs(stats.NewRand(1), rows/2, cols/2, 1.0, scenario.InstanceJitter)
	budget := units.Watts(1.19 / 4 * float64(m))
	mv := set.NewMover(rx, nil)
	env := mv.Env()
	w := cluster.NewWorkspace(cluster.Spec{Threshold: 0.5}, alloc.Heuristic{AllowPartial: true}, 1)
	if _, err := w.Solve(env, budget); err != nil {
		b.Fatal(err)
	}
	posA, posB := floorRXToggle(rx)
	dirty := func(ci int) bool { return ci == w.Clustering().RXOf[7] }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			mv.MoveRX(7, posB) // one column refreshed
		} else {
			mv.MoveRX(7, posA)
		}
		if _, err := w.SolveDirty(env, budget, dirty); err != nil { // one cluster re-solved
			b.Fatal(err)
		}
	}
}

// Service-grade churn benchmarks: the PR 10 headline. ChurnDecisions1024
// measures sustained allocation decisions/sec on the building-scale floor
// (N=1024 TXs, 256 tenancy slots) with the workload engine churning the
// population every epoch — each decision is a dirty-tracked sharded solve
// on the masked channel, the controller's incremental path. The wire Report
// format carries at most 255 gains, so building scale exercises the
// decision kernel directly; ChurnFrames covers the full MAC/transport path
// at paper scale. Both publish custom metrics scripts/bench.sh parses into
// BENCH_pr10.json: decisions/s and frames/s (higher is better), p50-ns and
// p99-ns decision latency (lower is better).

func BenchmarkChurnDecisions1024(b *testing.B) {
	rows, cols, m := experiments.ClusterScaleDims(false)
	set := scenario.FloorGrid(rows, cols)
	budget := units.Watts(1.19 / 4 * float64(m))
	sp := workload.DefaultSpec()
	sp.ArrivalRate = 16 // heavy churn: many arrivals and departures per epoch
	sp.MeanDwell = 8
	sp.Fleet = m
	sp.Speed = 0.25
	engine, err := workload.NewEngine(sp, set, budget, stats.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	start := make([]geom.Vec, m)
	for i := range start {
		start[i] = engine.Position(i, 0)
	}
	mv := set.NewMover(start, nil)
	work := mv.Env().H.Clone() // masked working copy the workspace solves on
	engine.Mask(work)
	env := &alloc.Env{Params: set.Params, H: work, LED: set.LED}
	w := cluster.NewWorkspace(cluster.Spec{Threshold: 0.5},
		alloc.Heuristic{AllowPartial: true}, parallelWorkers)
	if _, err := w.Solve(env, budget); err != nil {
		b.Fatal(err)
	}
	prevActive := make([]bool, m)
	dirty := make(map[int]bool, m)
	lat := make([]float64, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := units.Seconds(i)
		engine.Step(t0, 1)
		rxOf := w.Clustering().RXOf
		clear(dirty)
		for s := 0; s < m; s++ {
			active := engine.Active(s)
			switch {
			case active: // tenant moved (or just arrived): refresh its column
				mv.MoveRX(s, engine.Position(s, t0))
				src := mv.Env().H
				for j := 0; j < work.N; j++ {
					work.H[j][s] = src.H[j][s]
				}
				dirty[rxOf[s]] = true
			case prevActive[s]: // departed this epoch: the column goes dark
				for j := 0; j < work.N; j++ {
					work.H[j][s] = 0
				}
				dirty[rxOf[s]] = true
			}
			prevActive[s] = active
		}
		sw := stats.StartStopwatch()
		if _, err := w.SolveDirty(env, budget, func(c int) bool { return dirty[c] }); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, float64(sw.Elapsed().Nanoseconds()))
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
	b.ReportMetric(stats.Percentile(lat, 50), "p50-ns")
	b.ReportMetric(stats.Percentile(lat, 99), "p99-ns")
}

// BenchmarkChurnFrames runs the full asynchronous deployment — goroutine
// per node, real MAC frames over the in-memory transport — under churn and
// reports sustained acknowledged frames per wall-clock second.
func BenchmarkChurnFrames(b *testing.B) {
	sp := workload.DefaultSpec()
	sp.ArrivalRate = 2
	sp.MeanDwell = 10
	sp.Fleet = 4
	sp.PeakFrames = 6
	acked := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := node.RunContext(context.Background(), node.Config{
			Setup:         scenario.Default(),
			Workload:      &sp,
			Budget:        1.19,
			Sync:          clock.MethodNLOSVLC,
			Rounds:        3,
			RoundDuration: 1,
			FramesPerRX:   6,
			Seed:          int64(i + 1),
			AckTimeout:    200 * time.Millisecond,
			Timeout:       60 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rounds {
			acked += r.FramesAckd
		}
	}
	b.StopTimer()
	if acked == 0 {
		b.Fatal("no frames acknowledged under churn")
	}
	b.ReportMetric(float64(acked)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkMoveRX1024 pins the geometry kernel alone: one receiver move on
// the 1024-TX floor is one 1024-gain column refresh, zero allocations.
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
	}
}
