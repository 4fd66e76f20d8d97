package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sprintgame/internal/coord"
	"sprintgame/internal/core"
	"sprintgame/internal/persist"
	"sprintgame/internal/telemetry"
)

// The serving workloads drive a direct TCP coordinator (coord.ServeWith
// over one core.SolveCache, JSON wire, no router, no L1) with the
// 1000-agent population.
//
// serve-hot: two closed-loop connections fetch strategies while profiles
// never change, so every fetch after set-up is a cache hit.
//
// serve-churn: the cache also has the disk tier, restarted from a stale
// log, and one scripted client repeats submit → resolve → churnHits hit
// fetches, so every resolve re-pools the population, runs a cold
// Algorithm 1 solve and spills it to disk.

const (
	hotClients = 2
	churnHits  = 8
	// serveSetups is how many times a run sets the server up before the
	// timed phase, and again after it; setup_s is the median of all.
	serveSetups = 8
)

// answer is one strategies response.
type answer struct {
	strategies map[string]coord.Strategy
	ptrip      float64
}

// sameAnswer reports whether two answers agree bit for bit on every
// class's threshold, sprint probability and agent count, and on Ptrip.
func sameAnswer(a, b answer) bool {
	if math.Float64bits(a.ptrip) != math.Float64bits(b.ptrip) || len(a.strategies) != len(b.strategies) {
		return false
	}
	for name, s := range a.strategies {
		t, ok := b.strategies[name]
		if !ok || math.Float64bits(s.Threshold) != math.Float64bits(t.Threshold) ||
			math.Float64bits(s.SprintProb) != math.Float64bits(t.SprintProb) ||
			math.Float64bits(s.Ptrip) != math.Float64bits(a.ptrip) || s.Agents != t.Agents {
			return false
		}
	}
	return true
}

// reference is a cache-less in-process coordinator: the source of truth
// the served strategies are checked against.
type reference struct {
	c *coord.Coordinator
}

func newReference(profiles []coord.Profile) (*reference, error) {
	c, err := coord.NewCoordinator(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for _, p := range profiles {
		if err := c.Submit(p); err != nil {
			return nil, err
		}
	}
	return &reference{c: c}, nil
}

// solve answers the current population and insists the solve converged.
func (r *reference) solve() (answer, error) {
	s, eq, err := r.c.ComputeStrategies()
	if err != nil {
		return answer{}, err
	}
	if !eq.Converged {
		return answer{}, errors.New("reference solve did not converge")
	}
	return answer{strategies: s, ptrip: eq.Ptrip}, nil
}

// serveEnv is one set-up serving stack.
type serveEnv struct {
	cache   *core.SolveCache
	store   *persist.EquilibriumStore
	srv     *coord.Server
	clients []*coord.Client

	setup    time.Duration // wall time
	setupCPU time.Duration // process CPU time
	replay   time.Duration
	warm     time.Duration
	register time.Duration
	replayed int
	first    answer
}

func (e *serveEnv) close() error {
	for _, c := range e.clients {
		c.Close()
	}
	var errs []error
	if e.srv != nil {
		errs = append(errs, e.srv.Close())
	}
	if e.store != nil {
		errs = append(errs, e.store.Close())
	}
	return errors.Join(errs...)
}

// copyFile copies the stale log so every set-up replays the same bytes
// (a set-up spills its first solve, which must not warm the next one).
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// setupServe builds the serving stack and registers the population.
// Set-up runs from the first program call to the first answer; both its
// wall time and the CPU time it took are kept.
// When staleLog is non-empty the cache restarts from a copy of it.
func setupServe(in *serveInputs, staleLog, workDir string, clients int, tracer *telemetry.Tracer, submits *callTimer) (*serveEnv, error) {
	var logPath string
	if staleLog != "" {
		logPath = filepath.Join(workDir, "equilibria.log")
		if err := copyFile(logPath, staleLog); err != nil {
			return nil, fmt.Errorf("copy stale log: %w", err)
		}
	}
	env := &serveEnv{}
	c0 := cpuTime()
	t0 := time.Now()
	env.cache = core.NewSolveCache(0, nil)
	if logPath != "" {
		t := time.Now()
		store, loaded, err := persist.OpenEquilibriumStore(logPath)
		if err != nil {
			return nil, fmt.Errorf("open disk tier: %w", err)
		}
		env.replay = time.Since(t)
		env.store, env.replayed = store, len(loaded)
		t = time.Now()
		env.cache.Warm(loaded)
		env.warm = time.Since(t)
		env.cache.SetStore(store)
	}
	coordinator, err := coord.NewCoordinator(core.DefaultConfig())
	if err != nil {
		env.close()
		return nil, err
	}
	env.srv, err = coord.ServeWith(coordinator, coord.ServeOptions{
		Addr: "127.0.0.1:0", Cache: env.cache, Tracer: tracer,
	})
	if err != nil {
		env.close()
		return nil, fmt.Errorf("start coordinator: %w", err)
	}
	for i := 0; i < clients; i++ {
		env.clients = append(env.clients, coord.NewClientWith(env.srv.Addr(), coord.ClientOptions{
			PoolSize: 1, Tracer: tracer, TraceSeed: uint64(i + 1),
		}))
	}
	t := time.Now()
	for _, p := range in.Profiles {
		s := time.Now()
		if err := env.clients[0].SubmitProfile(p); err != nil {
			env.close()
			return nil, fmt.Errorf("register %s: %w", p.Agent, err)
		}
		submits.add(time.Since(s))
	}
	env.register = time.Since(t)
	s, ptrip, err := env.clients[0].FetchStrategies()
	if err != nil {
		env.close()
		return nil, fmt.Errorf("first fetch: %w", err)
	}
	env.setup = time.Since(t0)
	env.setupCPU = cpuTime() - c0
	env.first = answer{strategies: s, ptrip: ptrip}
	return env, nil
}

// servePhase is the outcome of one timed serving loop.
type servePhase struct {
	requests int
	failed   int
	lat      latencyHist // serve-hot: every fetch; serve-churn: resolves
	resolves []answer    // serve-churn: the answer of each resolve, in order
	fetches  callTimer
	submits  callTimer
	stats    core.SolveCacheStats // cache counter deltas over the loop
	mem      memDelta
	windows  windowCounter
	window   time.Duration // the phase's planned length
	cpu      time.Duration // process CPU time over the loop
}

// cpuPerRequest is the phase's process CPU time per request, in µs.
func (ph *servePhase) cpuPerRequest() float64 {
	if ph.requests == 0 {
		return 0
	}
	return float64(ph.cpu) / 1e3 / float64(ph.requests)
}

// rate is the phase's throughput: the interquartile mean of its
// windows' requests per second, with the number of windows.
func (ph *servePhase) rate() (float64, int) { return ph.windows.rate(ph.window) }

// runHot runs serve-hot's loop: hotClients closed-loop connections
// fetching strategies, each answer checked against want.
func runHot(env *serveEnv, d time.Duration, want answer) *servePhase {
	ph := &servePhase{window: d}
	before := env.cache.Stats()
	m0 := readMem()
	type worker struct {
		lat     latencyHist
		failed  int
		fetches callTimer
		windows windowCounter
	}
	ws := make([]worker, len(env.clients))
	c0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for i := range ws {
		ws[i].windows.start = start
	}
	var wg sync.WaitGroup
	for i := range env.clients {
		wg.Add(1)
		go func(w *worker, c *coord.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t := time.Now()
				s, ptrip, err := c.FetchStrategies()
				end := time.Now()
				lat := end.Sub(t)
				w.lat.add(lat)
				w.fetches.add(lat)
				w.windows.add(end)
				if err != nil || !sameAnswer(answer{s, ptrip}, want) {
					w.failed++
				}
			}
		}(&ws[i], env.clients[i])
	}
	wg.Wait()
	ph.cpu = cpuTime() - c0
	ph.mem = readMem().sub(m0)
	for i := range ws {
		ph.lat.merge(&ws[i].lat)
		ph.requests += int(ws[i].lat.n)
		ph.failed += ws[i].failed
		ph.fetches.Count += ws[i].fetches.Count
		ph.fetches.Total += ws[i].fetches.Total
		ph.windows.merge(&ws[i].windows)
	}
	ph.windows.start = start
	ph.stats = statsDelta(env.cache.Stats(), before)
	return ph
}

// runChurn runs serve-churn's scripted loop. Resolve answers are kept
// for the reference check; hit fetches must repeat the last resolve.
func runChurn(env *serveEnv, d time.Duration, in *serveInputs) *servePhase {
	ph := &servePhase{window: d}
	c := env.clients[0]
	before := env.cache.Stats()
	m0 := readMem()
	c0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	ph.windows.start = start
	for k := 0; time.Now().Before(deadline); k++ {
		t := time.Now()
		err := c.SubmitProfile(in.Reprofiles[k%len(in.Reprofiles)])
		end := time.Now()
		ph.submits.add(end.Sub(t))
		ph.windows.add(end)
		ph.requests++
		if err != nil {
			ph.failed++
		}
		t = time.Now()
		s, ptrip, err := c.FetchStrategies()
		end = time.Now()
		lat := end.Sub(t)
		ph.fetches.add(lat)
		ph.windows.add(end)
		ph.requests++
		ph.lat.add(lat)
		last := answer{strategies: s, ptrip: ptrip}
		ph.resolves = append(ph.resolves, last)
		if err != nil {
			ph.failed++
		}
		for h := 0; h < churnHits; h++ {
			t = time.Now()
			s, ptrip, err := c.FetchStrategies()
			end := time.Now()
			ph.fetches.add(end.Sub(t))
			ph.windows.add(end)
			ph.requests++
			if err != nil || !sameAnswer(answer{s, ptrip}, last) {
				ph.failed++
			}
		}
	}
	ph.cpu = cpuTime() - c0
	ph.mem = readMem().sub(m0)
	ph.stats = statsDelta(env.cache.Stats(), before)
	return ph
}

// verifyResolves replays the churn schedule into a cache-less reference
// coordinator and counts resolves whose served answer differs. The
// phases all start from the initial population, so one replay covers
// them all.
func verifyResolves(in *serveInputs, phases ...*servePhase) (int, error) {
	n := 0
	for _, ph := range phases {
		n = max(n, len(ph.resolves))
	}
	ref, err := newReference(in.Profiles)
	if err != nil {
		return 0, err
	}
	failed := 0
	for k := 0; k < n; k++ {
		if err := ref.c.Submit(in.Reprofiles[k%len(in.Reprofiles)]); err != nil {
			return 0, err
		}
		want, err := ref.solve()
		if err != nil {
			return 0, fmt.Errorf("reference resolve %d: %w", k, err)
		}
		for _, ph := range phases {
			if k < len(ph.resolves) && !sameAnswer(ph.resolves[k], want) {
				failed++
			}
		}
	}
	return failed, nil
}

func statsDelta(a, b core.SolveCacheStats) core.SolveCacheStats {
	return core.SolveCacheStats{
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Coalesced: a.Coalesced - b.Coalesced,
		Evictions: a.Evictions - b.Evictions, Spills: a.Spills - b.Spills,
		SpillErrors: a.SpillErrors - b.SpillErrors, Size: a.Size,
	}
}

// runServeWorkload runs serve-hot (churn false) or serve-churn.
func runServeWorkload(o options, churn bool) (*result, error) {
	in, err := genServeInputs(o.seed, churn)
	if err != nil {
		return nil, fmt.Errorf("generate serving inputs: %w", err)
	}
	staleLog := ""
	if churn {
		staleLog = filepath.Join(o.workDir, "stale.log")
		if err := writeStaleLog(staleLog, o.seed); err != nil {
			return nil, fmt.Errorf("write stale log: %w", err)
		}
	}
	ref, err := newReference(in.Profiles)
	if err != nil {
		return nil, err
	}
	want, err := ref.solve()
	if err != nil {
		return nil, fmt.Errorf("reference solve: %w", err)
	}
	clients := hotClients
	if churn {
		clients = 1
	}
	res := &result{}
	run := func(env *serveEnv, d time.Duration) *servePhase {
		if churn {
			return runChurn(env, d, in)
		}
		return runHot(env, d, want)
	}

	// Set up serveSetups times before the timed phase, the last stack
	// serving it, and serveSetups times after it: set-ups seconds apart
	// see different moments of a shared host.
	var setups, setupCPUs []time.Duration
	var setupRSS []float64
	var registerSubmits callTimer
	setup := func() (*serveEnv, error) {
		startPhase() // every set-up starts from the same heap
		env, err := setupServe(in, staleLog, o.workDir, clients, nil, &registerSubmits)
		if err != nil {
			return nil, err
		}
		setupRSS = append(setupRSS, phasePeakMiB())
		setups = append(setups, env.setup)
		setupCPUs = append(setupCPUs, env.setupCPU)
		res.Attempted++
		if !sameAnswer(env.first, want) {
			res.Failed++
		}
		return env, nil
	}
	setupAndClose := func(n int) error {
		for i := 0; i < n; i++ {
			env, err := setup()
			if err != nil {
				return err
			}
			if err := env.close(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := setupAndClose(serveSetups - 1); err != nil {
		return nil, err
	}
	env, err := setup()
	if err != nil {
		return nil, err
	}
	d := time.Duration(o.seconds) * time.Second
	if o.trace {
		d /= 2
	}
	rss := startRSS()
	ph := run(env, d)
	res.RSS, res.RSSWindows = rss.finish()
	if err := env.close(); err != nil {
		return nil, err
	}
	if err := setupAndClose(serveSetups); err != nil {
		return nil, err
	}
	res.Attempted += ph.requests
	res.Failed += ph.failed
	setupS, setupWallS := medianSeconds(setupCPUs), medianSeconds(setups)
	rate, windows := ph.rate()
	p50Name, tailName, tailQ := "latency_p50_ms", "latency_p99_ms", 0.99
	if churn {
		p50Name, tailName, tailQ = "resolve_p50_ms", "resolve_p95_ms", 0.95
	}
	p50, tail := ph.lat.quantile(0.50), ph.lat.quantile(tailQ)
	n := int(ph.lat.n)
	res.Detail = []metric{
		{"setup_s", "s", setupS, len(setupCPUs)},
		{"setup_wall_s", "s", setupWallS, len(setups)},
		{"req_per_s", "ops/s", rate, windows},
		{p50Name, "ms", ms(p50), n},
		{tailName, "ms", ms(tail), n},
		{"cpu_us_per_op", "us", ph.cpuPerRequest(), ph.requests},
		{"setup_rss_peak_mb", "MiB", median(setupRSS), len(setupRSS)},
	}
	if !o.trace {
		res.Metrics = []metric{
			{"setup_s", "s", setupS, len(setupCPUs)},
			{"cpu_us_per_op", "us", ph.cpuPerRequest(), ph.requests},
		}
		if churn {
			bad, err := verifyResolves(in, ph)
			if err != nil {
				return nil, err
			}
			res.Failed += bad
		}
		return res, nil
	}

	// Traced phase: a fresh stack whose server and client spans land in
	// the sink once set-up is done.
	sink := newSpanSink()
	tracer := newArmedTracer(sink)
	var submits callTimer
	startPhase()
	envT, err := setupServe(in, staleLog, o.workDir, clients, tracer.t, &submits)
	if err != nil {
		return nil, err
	}
	res.Attempted++
	if !sameAnswer(envT.first, want) {
		res.Failed++
	}
	startPhase()
	tracer.arm()
	phT := run(envT, d)
	if err := tracer.disarm(); err != nil {
		return nil, err
	}
	if err := envT.close(); err != nil {
		return nil, err
	}
	res.Attempted += phT.requests
	res.Failed += phT.failed
	if churn {
		bad, err := verifyResolves(in, ph, phT)
		if err != nil {
			return nil, err
		}
		res.Failed += bad
	}

	lv := layerValues{}
	st := phT.stats
	lv.set("core.solves", float64(st.Misses), 1)
	lv.set("core.coalesced", float64(st.Coalesced), 1)
	if lookups := st.Hits + st.Misses + st.Coalesced; lookups > 0 {
		lv.set("core.cache_hit_ratio", float64(st.Hits)/float64(lookups), lookups)
	}
	solve := sink.agg("core.solve")
	if solve.Count > 0 {
		lv.set("core.solve_ms", ms(solve.Total)/float64(solve.Count), solve.Count)
		lv.set("core.solver_iters", float64(solve.Iters)/float64(solve.Count), solve.Count)
	}
	if lk := sink.agg("cache.lookup"); lk.Sel > 0 {
		lv.set("core.cache_lookup_us", float64(lk.SelTotal)/1e3/float64(lk.Sel), lk.Sel)
	}
	lv.set("coord.calls", float64(phT.fetches.Count+phT.submits.Count), 1)
	lv.set("coord.fetch_rtt_us", phT.fetches.meanNS()/1e3, phT.fetches.Count)
	allSubmits := submits
	allSubmits.Count += phT.submits.Count
	allSubmits.Total += phT.submits.Total
	lv.set("coord.submit_us", allSubmits.meanNS()/1e3, allSubmits.Count)
	if req := sink.agg("coord.request"); req.Count > 0 {
		lv.set("coord.request_self_us", float64(req.Self)/1e3/float64(req.Count), req.Count)
		if cl := sink.agg("coord.client.request"); cl.Count > 0 {
			wire := float64(cl.Total)/float64(cl.Count) - float64(req.Total)/float64(req.Count)
			lv.set("coord.wire_us", wire/1e3, cl.Count)
		}
	}
	if pool := sink.agg("coord.pool"); pool.Sel > 0 {
		lv.set("coord.pool_ms", ms(pool.SelTotal)/float64(pool.Sel), pool.Sel)
	}
	lv.set("coord.register_s", envT.register.Seconds(), int64(len(in.Profiles)))
	if churn {
		lv.set("core.warm_s", envT.warm.Seconds(), 1)
		lv.set("persist.replay_s", envT.replay.Seconds(), 1)
		lv.set("persist.records_replayed", float64(envT.replayed), 1)
		lv.set("persist.spills", float64(st.Spills), 1)
		lv.set("persist.spill_errors", float64(st.SpillErrors), 1)
	}
	lv.setGo(ph.mem, ph.requests)
	lv.setOverhead(ph.cpuPerRequest(), phT.cpuPerRequest())
	res.Metrics = lv.metrics()
	res.Layers = func() {
		printLayerTable(os.Stdout, sink, map[string]*callTimer{
			"coord.Client.FetchStrategies": &phT.fetches,
			"coord.Client.SubmitProfile":   &phT.submits,
		})
	}
	if churn && solve.Count > 0 && phT.lat.n > 0 {
		// Self time of the two layers a resolve should spend most of its
		// time in, per resolve, against the traced resolve latency.
		pool := sink.agg("coord.pool")
		per := float64(solve.Total)/float64(solve.Count) + float64(pool.Self)/float64(solve.Count)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"core.solve + coord.pool self time per resolve = %.2f ms: %.0f%% of the traced resolve mean %.2f ms (p50 %.2f ms)",
			per/1e6, 100*per/float64(phT.lat.mean()), ms(phT.lat.mean()), ms(phT.lat.quantile(0.5))))
	}
	return res, nil
}
