package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"sprintgame/internal/cluster"
	"sprintgame/internal/core"
	"sprintgame/internal/route"
	"sprintgame/internal/sim"
	"sprintgame/internal/stats"
	"sprintgame/internal/telemetry"
	"sprintgame/internal/workload"
)

// rack-serve: route.Serve over the eight-rack heterogeneous cluster with
// the equilibrium sprint policy, Poisson arrivals, least-loaded routing
// and two workers. Set-up presolves the eight rack games through
// cluster.PresolveEquilibria; the timed phase repeats the same serving
// run, so agent-epoch simulation and per-job routing do the work.

// epochClock wraps the arrival process. route.Serve calls Epoch once at
// the start of every epoch, so the call times split the run into epoch
// wall times. With a timer it also times the wrapped call.
type epochClock struct {
	inner  route.Arrivals
	stamps []time.Time
	timer  *callTimer
}

func (e *epochClock) Name() string { return e.inner.Name() }

func (e *epochClock) Epoch(epoch int, rng *stats.RNG) []route.Job {
	t := time.Now()
	e.stamps = append(e.stamps, t)
	if e.timer == nil {
		return e.inner.Epoch(epoch, rng)
	}
	jobs := e.inner.Epoch(epoch, rng)
	e.timer.add(time.Since(t))
	return jobs
}

// timedPolicy times every routing decision.
type timedPolicy struct {
	inner route.Policy
	timer *callTimer
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Pick(job route.Job, racks []cluster.RackSnapshot) int {
	t := time.Now()
	i := p.inner.Pick(job, racks)
	p.timer.add(time.Since(t))
	return i
}

// rackEnv is one set-up cluster: its config with the presolved cache.
type rackEnv struct {
	cfg      cluster.Config
	cache    *core.SolveCache
	stats    cluster.PresolveStats
	setup    time.Duration // wall time
	setupCPU time.Duration // process CPU time
}

// setupRack builds the cluster and presolves its rack games; set-up
// time covers both, ending when the first epoch is ready to run.
func setupRack(in *rackInputs) (*rackEnv, error) {
	c0 := cpuTime()
	t0 := time.Now()
	cache := core.NewSolveCache(0, nil)
	cfg, err := in.clusterConfig(rackEpochs, cache)
	if err != nil {
		return nil, err
	}
	st := cluster.PresolveEquilibria(cfg, cache)
	setup, setupCPU := time.Since(t0), cpuTime()-c0
	if st.Skipped > 0 || st.Solved+st.Cached != st.Distinct {
		return nil, fmt.Errorf("presolve: %+v", st)
	}
	return &rackEnv{cfg: cfg, cache: cache, stats: st, setup: setup, setupCPU: setupCPU}, nil
}

// rackRun is one serving run's outcome.
type rackRun struct {
	res    *route.Result
	wall   time.Duration
	epochs []time.Duration
}

// serveOnce runs one serving run. pick and arrive, when non-nil, time
// the routing policy and the arrival process.
func serveOnce(env *rackEnv, in *rackInputs, tracer *telemetry.Tracer, pick, arrive *callTimer) (*rackRun, error) {
	arr, err := in.arrivals()
	if err != nil {
		return nil, err
	}
	clock := &epochClock{inner: arr, timer: arrive}
	var router route.Policy = route.NewLeastLoaded()
	if pick != nil {
		router = &timedPolicy{inner: router, timer: pick}
	}
	cfg := env.cfg
	cfg.Tracer = tracer
	t0 := time.Now()
	res, err := route.Serve(route.Config{Cluster: cfg, Arrivals: clock, Router: router})
	end := time.Now()
	if err != nil {
		return nil, err
	}
	run := &rackRun{res: res, wall: end.Sub(t0)}
	for i, t := range clock.stamps {
		next := end
		if i+1 < len(clock.stamps) {
			next = clock.stamps[i+1]
		}
		run.epochs = append(run.epochs, next.Sub(t))
	}
	return run, nil
}

// rackPhase is a timed sequence of identical serving runs.
type rackPhase struct {
	runs   []*rackRun
	failed int
	stats  core.SolveCacheStats
	mem    memDelta
	epochs latencyHist   // wall time of every epoch of every run
	walls  latencyHist   // wall time of every run
	cpu    time.Duration // process CPU time over the runs
}

// cpuPerEpoch is the phase's process CPU time per cluster epoch (all
// racks' agents for one epoch), in µs.
func (ph *rackPhase) cpuPerEpoch() float64 {
	return float64(ph.cpu) / 1e3 / float64(len(ph.runs)*rackEpochs)
}

// agentEpochs is the simulated work of one serving run.
func agentEpochs() int {
	n := 0
	for i := 0; i < rackCount; i++ {
		n += rackChips(i)
	}
	return n * rackEpochs
}

// sameOutcome reports whether two runs of the same inputs agree on the
// model outputs a speed-up must not change.
func sameOutcome(a, b *route.Result) bool {
	return math.Float64bits(a.Throughput) == math.Float64bits(b.Throughput) &&
		math.Float64bits(a.Latency.P99) == math.Float64bits(b.Latency.P99) &&
		a.Arrived == b.Arrived && a.Completed == b.Completed
}

// runRackPhase serves repeatedly for d (at least once). Every run must
// conserve jobs and match the first run's outcome (or want's).
func runRackPhase(env *rackEnv, in *rackInputs, d time.Duration, want *route.Result, tracer *telemetry.Tracer, pick, arrive *callTimer) (*rackPhase, error) {
	ph := &rackPhase{}
	before := env.cache.Stats()
	m0 := readMem()
	c0 := cpuTime()
	start := time.Now()
	for len(ph.runs) == 0 || time.Since(start) < d {
		run, err := serveOnce(env, in, tracer, pick, arrive)
		if err != nil {
			return nil, fmt.Errorf("serving run %d: %w", len(ph.runs), err)
		}
		if want == nil {
			want = run.res
		}
		r := run.res
		if r.Arrived != r.Completed+r.Unfinished || !sameOutcome(r, want) {
			ph.failed++
		}
		for _, e := range run.epochs {
			ph.epochs.add(e)
		}
		run.epochs = nil
		ph.walls.add(run.wall)
		ph.runs = append(ph.runs, run)
	}
	ph.cpu = cpuTime() - c0
	ph.mem = readMem().sub(m0)
	ph.stats = statsDelta(env.cache.Stats(), before)
	return ph, nil
}

// rate is the phase's median agent-epochs per second over its runs.
func (ph *rackPhase) rate() float64 {
	xs := make([]float64, len(ph.runs))
	for i, r := range ph.runs {
		xs[i] = float64(agentEpochs()) / r.wall.Seconds()
	}
	return median(xs)
}

func runRackWorkload(o options) (*result, error) {
	in := genRackInputs(o.seed)
	// Presolve rackPresolves times before the timed phase, the last
	// cluster serving it, and rackPresolves times after it.
	var setups, setupCPUs []time.Duration
	var setupRSS []float64
	setup := func() (*rackEnv, error) {
		startPhase() // every set-up starts from the same heap
		env, err := setupRack(in)
		if err == nil {
			setupRSS = append(setupRSS, phasePeakMiB())
			setups = append(setups, env.setup)
			setupCPUs = append(setupCPUs, env.setupCPU)
		}
		return env, err
	}
	var env *rackEnv
	for i := 0; i < rackPresolves; i++ {
		var err error
		if env, err = setup(); err != nil {
			return nil, err
		}
	}
	d := time.Duration(o.seconds) * time.Second
	if o.trace {
		d /= 2
	}
	rss := startRSS()
	ph, err := runRackPhase(env, in, d, nil, nil, nil, nil)
	phaseRSS, rssWindows := rss.finish()
	if err != nil {
		return nil, err
	}
	for i := 0; i < rackPresolves; i++ {
		if _, err := setup(); err != nil {
			return nil, err
		}
	}
	res := &result{Attempted: len(ph.runs), Failed: ph.failed, RSS: phaseRSS, RSSWindows: rssWindows}
	first := ph.runs[0].res
	setupS, setupWallS := medianSeconds(setupCPUs), medianSeconds(setups)
	rate := ph.rate()
	runs := len(ph.runs)
	runP50, runP95 := ph.walls.quantile(0.50), ph.walls.quantile(0.95)
	res.Detail = []metric{
		{"setup_s", "s", setupS, len(setupCPUs)},
		{"setup_wall_s", "s", setupWallS, len(setups)},
		{"agent_epochs_per_s", "1/s", rate, runs},
		{"run_p50_ms", "ms", ms(runP50), runs},
		{"run_p95_ms", "ms", ms(runP95), runs},
		{"epoch_p50_ms", "ms", ms(ph.epochs.quantile(0.50)), int(ph.epochs.n)},
		{"epoch_p99_ms", "ms", ms(ph.epochs.quantile(0.99)), int(ph.epochs.n)},
		{"cpu_us_per_op", "us", ph.cpuPerEpoch(), runs * rackEpochs},
		{"units_per_epoch", "units", first.Throughput, runs},
		{"job_p99_epochs", "epochs", first.Latency.P99, first.Completed},
		{"setup_rss_peak_mb", "MiB", median(setupRSS), len(setupRSS)},
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d racks, %d agent-epochs per run, arrivals %s, mixes %v",
		rackCount, agentEpochs(), in.Arrivals, in.Mixes))
	if !o.trace {
		res.Metrics = []metric{
			{"setup_s", "s", setupS, len(setupCPUs)},
			{"cpu_us_per_op", "us", ph.cpuPerEpoch(), runs * rackEpochs},
		}
		return res, nil
	}

	sink := newSpanSink()
	tracer := newArmedTracer(sink)
	var pick, arrive callTimer
	startPhase()
	tracer.arm()
	phT, err := runRackPhase(env, in, d, first, tracer.t, &pick, &arrive)
	if err != nil {
		return nil, err
	}
	if err := tracer.disarm(); err != nil {
		return nil, err
	}
	res.Attempted += len(phT.runs)
	res.Failed += phT.failed
	stepper, next, err := timeSimLayers(env, in)
	if err != nil {
		return nil, err
	}

	lv := layerValues{}
	st := phT.stats
	lv.set("core.solves", float64(st.Misses), 1)
	lv.set("core.coalesced", float64(st.Coalesced), 1)
	if lookups := st.Hits + st.Misses + st.Coalesced; lookups > 0 {
		lv.set("core.cache_hit_ratio", float64(st.Hits)/float64(lookups), lookups)
	}
	lv.set("cluster.presolve_s", setupWallS, int64(len(setups)))
	lv.set("cluster.presolve_distinct", float64(env.stats.Distinct), 1)
	lv.set("cluster.presolve_solved", float64(env.stats.Solved), 1)
	lv.set("route.pick_ns", pick.meanNS(), pick.Count)
	lv.set("route.picks", float64(pick.Count), 1)
	lv.set("route.arrivals_ns", arrive.meanNS(), arrive.Count)
	r := phT.runs[0].res
	lv.set("route.jobs_arrived", float64(r.Arrived), 1)
	lv.set("route.jobs_completed", float64(r.Completed), 1)
	lv.set("route.jobs_unfinished", float64(r.Unfinished), 1)
	lv.set("route.jobs_rerouted", float64(r.Rerouted), 1)
	lv.set("sim.agent_epoch_ns", stepper.meanNS(), stepper.Count)
	lv.set("workload.trace_next_ns", next.meanNS(), next.Count)
	lv.setGo(ph.mem, len(ph.runs)*agentEpochs())
	lv.setOverhead(ph.cpuPerEpoch(), phT.cpuPerEpoch())
	res.Metrics = lv.metrics()
	res.Layers = func() {
		printLayerTable(os.Stdout, sink, map[string]*callTimer{
			"route.Policy.Pick":             &pick,
			"route.Arrivals.Epoch":          &arrive,
			"sim.Stepper (per agent-epoch)": &stepper,
			"workload.TraceGenerator.Next":  &next,
		})
	}
	return res, nil
}

// timeSimLayers times the simulation layers on the cluster's own racks:
// a sim.Stepper over each rack's config (construction plus every step,
// counted per agent-epoch) and TraceGenerator.Next on each rack's apps.
func timeSimLayers(env *rackEnv, in *rackInputs) (stepper, next callTimer, err error) {
	const draws = 200000
	for i := range env.cfg.Racks {
		simCfg := env.cfg.RackSimConfig(i)
		pol, err := env.cfg.Policy(i, env.cfg.Racks[i], simCfg)
		if err != nil {
			return stepper, next, err
		}
		t := time.Now()
		st, err := sim.NewStepper(simCfg, pol)
		if err != nil {
			return stepper, next, err
		}
		for e := 0; e < simCfg.Epochs; e++ {
			if _, err := st.Step(); err != nil {
				return stepper, next, err
			}
		}
		stepper.Total += time.Since(t)
		stepper.Count += int64(simCfg.Game.N * simCfg.Epochs)
		for k, app := range in.Mixes[i] {
			b, err := workload.ByName(app)
			if err != nil {
				return stepper, next, err
			}
			g, err := workload.NewTraceGenerator(b, cluster.MixSeed(in.BaseSeed, 16*i+k))
			if err != nil {
				return stepper, next, err
			}
			t := time.Now()
			sum := 0.0
			for n := 0; n < draws; n++ {
				sum += g.Next()
			}
			next.Total += time.Since(t)
			next.Count += draws
			if math.IsNaN(sum) {
				return stepper, next, errors.New("trace generator produced NaN")
			}
		}
	}
	return stepper, next, nil
}
