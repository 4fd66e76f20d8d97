package main

import (
	"fmt"
	"os"

	"sprintgame/internal/cluster"
	"sprintgame/internal/coord"
	"sprintgame/internal/core"
	"sprintgame/internal/persist"
	"sprintgame/internal/power"
	"sprintgame/internal/route"
	"sprintgame/internal/sim"
	"sprintgame/internal/stats"
	"sprintgame/internal/workload"
)

// Input generation. Every input a workload feeds the program derives
// from the one --seed argument through seedFor, so the same seed gives
// identical inputs and different seeds give different ones. Nothing here
// is timed.

// Serving population: the paper's rack of N = 1000 chips, one agent per
// chip, spread evenly over four catalog applications.
var serveApps = []string{"decision", "pagerank", "kmeans", "als"}

const (
	serveAgents   = 1000
	profileEpochs = 400 // epochs each agent samples for its profile
	profileBins   = 16  // histogram bins per agent profile
	reprofiles    = 3000
	staleRecords  = 20000
	staleDupEvery = 10 // every tenth stale record rewrites an earlier key
)

// seedFor derives an independent stream seed for one input kind.
func seedFor(seed uint64, kind int) uint64 { return cluster.MixSeed(seed, -100-kind) }

const (
	streamProfiles = iota
	streamReprofile
	streamStale
	streamRacks
	streamArrivals
)

// serveInputs is everything the serving workloads submit.
type serveInputs struct {
	// Profiles is the initial population, one per agent, in agent order.
	Profiles []coord.Profile
	// Reprofiles is the churn schedule: re-profiled agents to submit, in
	// submission order.
	Reprofiles []coord.Profile
}

// agentID names agent i of the serving population.
func agentID(i int) string { return fmt.Sprintf("agent-%04d", i) }

// buildProfile runs one agent's offline profiling through the public
// coord.Agent API.
func buildProfile(id, app string, seed uint64) (coord.Profile, error) {
	b, err := workload.ByName(app)
	if err != nil {
		return coord.Profile{}, err
	}
	pred, err := coord.NewEWMAPredictor(0.5, 0)
	if err != nil {
		return coord.Profile{}, err
	}
	a, err := coord.NewAgent(id, b, seed, pred)
	if err != nil {
		return coord.Profile{}, err
	}
	return a.ProfileEpochs(profileEpochs, profileBins)
}

// genServeInputs builds the population and, when churn is set, the
// re-profile schedule: agents are visited in a seeded permutation and
// each visit re-profiles the agent on a fresh trace stream.
func genServeInputs(seed uint64, churn bool) (*serveInputs, error) {
	in := &serveInputs{Profiles: make([]coord.Profile, serveAgents)}
	rng := stats.NewRNG(seedFor(seed, streamProfiles))
	for i := range in.Profiles {
		p, err := buildProfile(agentID(i), serveApps[i%len(serveApps)], rng.Uint64())
		if err != nil {
			return nil, err
		}
		in.Profiles[i] = p
	}
	if !churn {
		return in, nil
	}
	rng = stats.NewRNG(seedFor(seed, streamReprofile))
	order := rng.Perm(serveAgents)
	in.Reprofiles = make([]coord.Profile, reprofiles)
	for k := range in.Reprofiles {
		i := order[k%serveAgents]
		p, err := buildProfile(agentID(i), serveApps[i%len(serveApps)], rng.Uint64())
		if err != nil {
			return nil, err
		}
		in.Reprofiles[k] = p
	}
	return in, nil
}

// staleEquilibrium synthesizes one equilibrium of the kind a long-lived
// deployment spills for a population that no longer exists: four
// classes with plausible strategies and a geometric residual tail.
func staleEquilibrium(rng *stats.RNG) *core.Equilibrium {
	iters := 40 + rng.Intn(40)
	eq := &core.Equilibrium{
		Ptrip:      rng.Range(0.001, 0.2),
		Sprinters:  rng.Range(100, 400),
		Iterations: iters,
		Residuals:  make([]float64, iters),
		Converged:  true,
		Classes:    make([]core.ClassOutcome, len(serveApps)),
	}
	r := rng.Range(0.1, 1)
	for i := range eq.Residuals {
		eq.Residuals[i] = r
		r *= rng.Range(0.5, 0.9)
	}
	for i := range eq.Classes {
		c := &eq.Classes[i]
		c.Name = serveApps[i]
		c.Threshold = rng.Range(1, 10)
		c.SprintProb = rng.Range(0, 1)
		c.ActiveFrac = rng.Range(0.5, 1)
		c.ExpectedSprinters = rng.Range(10, 100)
		c.Values = core.Values{
			VA: rng.Range(10, 50), VC: rng.Range(10, 50), VR: rng.Range(10, 50),
			Threshold: c.Threshold, Ptrip: eq.Ptrip, Iterations: 20 + rng.Intn(80),
		}
	}
	return eq
}

// writeStaleLog writes the disk tier's restart state: staleRecords
// equilibria under random keys, some keys rewritten later so replay's
// newest-wins rule has work to do.
func writeStaleLog(path string, seed uint64) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	store, _, err := persist.OpenEquilibriumStore(path)
	if err != nil {
		return err
	}
	rng := stats.NewRNG(seedFor(seed, streamStale))
	keys := make([]uint64, 0, staleRecords)
	for i := 0; i < staleRecords; i++ {
		key := rng.Uint64()
		if i%staleDupEvery == staleDupEvery-1 {
			key = keys[rng.Intn(len(keys))]
		}
		keys = append(keys, key)
		if err := store.Put(key, staleEquilibrium(rng)); err != nil {
			store.Close()
			return err
		}
	}
	return store.Close()
}

// Rack cluster shape: eight racks around a mean of 256 chips, rack pairs
// split 1:3 (128 and 384 chips), so round-robin routing overloads every
// small rack while load-aware routing does not.
const (
	rackCount     = 8
	rackMeanChips = 256
	// rackLoad is the offered load as a share of nominal capacity (one
	// unit per chip-epoch). At 0.9, round-robin offers each 128-chip
	// rack 1.8x what it can retire; least-loaded keeps every queue
	// bounded.
	rackLoad     = 0.9
	rackJobUnits = 4.0
	rackEpochs   = 200
	// rackPresolves is how many presolves a run times before the timed
	// phase, and again after it; setup_s is the median of all.
	rackPresolves = 10
)

// rackInputs is everything rack-serve feeds the program.
type rackInputs struct {
	// Mixes names each rack's two applications.
	Mixes [][2]string
	// BaseSeed seeds the racks' simulation streams and the arrival
	// stream (route.Serve draws arrivals from MixSeed(BaseSeed, -3)).
	BaseSeed uint64
	// Arrivals is the Poisson arrival spec.
	Arrivals string
}

// rackMixes are the cluster's eight distinct two-app mixes, covering the
// whole catalog. The seed decides which rack runs which mix, so every
// seed simulates the same applications and a seed's share of the
// simulation work stays comparable across seeds.
var rackMixes = [rackCount][2]string{
	{"decision", "pagerank"}, {"kmeans", "als"}, {"naive", "svm"}, {"gradient", "linear"},
	{"correlation", "cc"}, {"triangle", "decision"}, {"pagerank", "kmeans"}, {"als", "naive"},
}

// genRackInputs assigns the mixes to racks and picks the seeds of the
// rack and arrival streams.
func genRackInputs(seed uint64) *rackInputs {
	rng := stats.NewRNG(seedFor(seed, streamRacks))
	in := &rackInputs{
		Mixes:    make([][2]string, rackCount),
		BaseSeed: seedFor(seed, streamArrivals),
		Arrivals: fmt.Sprintf("poisson:rate=%g,units=%g",
			rackLoad*rackCount*rackMeanChips/rackJobUnits, rackJobUnits),
	}
	for i, k := range rng.Perm(rackCount) {
		in.Mixes[i] = rackMixes[k]
	}
	return in
}

// rackChips is rack i's chip count: pairs split 1:3 around the mean.
func rackChips(i int) int {
	if i%2 == 0 {
		return rackMeanChips / 2
	}
	return rackMeanChips + rackMeanChips/2
}

// scaledGame scales the paper's rack (N=1000, Nmin=250, Nmax=750) to n
// chips.
func scaledGame(n int) core.Config {
	game := core.DefaultConfig()
	nmin, nmax := game.Trip.Bounds()
	f := float64(n) / float64(game.N)
	game.Trip = power.LinearTripModel{NMin: nmin * f, NMax: nmax * f}
	game.N = n
	return game
}

// clusterConfig builds the rack cluster for the inputs. Each rack runs
// its two applications half and half.
func (in *rackInputs) clusterConfig(epochs int, cache *core.SolveCache) (cluster.Config, error) {
	specs := make([]cluster.RackSpec, rackCount)
	for i := range specs {
		n := rackChips(i)
		game := scaledGame(n)
		var groups []sim.Group
		for k, app := range in.Mixes[i] {
			b, err := workload.ByName(app)
			if err != nil {
				return cluster.Config{}, err
			}
			count := n / 2
			if k == 1 {
				count = n - n/2
			}
			groups = append(groups, sim.Group{Class: app, Count: count, Bench: b})
		}
		specs[i] = cluster.RackSpec{Groups: groups, Game: &game}
	}
	return cluster.Config{
		Racks:    specs,
		Epochs:   epochs,
		BaseSeed: in.BaseSeed,
		Game:     scaledGame(rackMeanChips),
		Workers:  2,
		Policy:   cluster.EquilibriumFactory(cache),
	}, nil
}

// arrivals builds a fresh arrival process for one serving run.
func (in *rackInputs) arrivals() (route.Arrivals, error) {
	cfg, err := route.ParseArrivalConfig(in.Arrivals)
	if err != nil {
		return nil, err
	}
	return cfg.Build(nil)
}
