package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sprintgame/internal/coord"
	"sprintgame/internal/core"
	"sprintgame/internal/route"
)

func TestServeInputsFollowSeed(t *testing.T) {
	a, err := genServeInputs(7, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genServeInputs(7, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different serving inputs")
	}
	c, err := genServeInputs(8, true)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Profiles, c.Profiles) || reflect.DeepEqual(a.Reprofiles, c.Reprofiles) {
		t.Fatal("different seeds gave identical serving inputs")
	}
	if len(a.Profiles) != serveAgents || len(a.Reprofiles) != reprofiles {
		t.Fatalf("got %d profiles and %d re-profiles", len(a.Profiles), len(a.Reprofiles))
	}
}

func TestStaleLogFollowsSeed(t *testing.T) {
	dir := t.TempDir()
	read := func(name string, seed uint64) []byte {
		path := filepath.Join(dir, name)
		if err := writeStaleLog(path, seed); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := read("a.log", 3), read("b.log", 3), read("c.log", 4)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed wrote different stale logs")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds wrote identical stale logs")
	}
}

func TestRackInputsFollowSeed(t *testing.T) {
	if !reflect.DeepEqual(genRackInputs(5), genRackInputs(5)) {
		t.Fatal("same seed gave different rack inputs")
	}
	a, b := genRackInputs(5), genRackInputs(6)
	if reflect.DeepEqual(a.Mixes, b.Mixes) || a.BaseSeed == b.BaseSeed {
		t.Fatal("different seeds gave identical rack mixes or arrival seeds")
	}
	seen := map[[2]string]bool{}
	for _, m := range a.Mixes {
		if m[0] == m[1] || seen[m] {
			t.Fatalf("mixes %v are not distinct two-app mixes", a.Mixes)
		}
		seen[m] = true
	}
}

// TestRackLoadCalibration pins the rack-serve load: least-loaded routing
// keeps up with the offered load while round-robin, which offers every
// small rack more than it can retire, falls behind.
func TestRackLoadCalibration(t *testing.T) {
	in := genRackInputs(1)
	cfg, err := in.clusterConfig(rackEpochs, core.NewSolveCache(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	serve := func(p route.Policy) *route.Result {
		arr, err := in.arrivals()
		if err != nil {
			t.Fatal(err)
		}
		res, err := route.Serve(route.Config{Cluster: cfg, Arrivals: arr, Router: p})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ll, rr := serve(route.NewLeastLoaded()), serve(route.NewRoundRobin())
	t.Logf("least-loaded: %d of %d unfinished, p99 %.0f epochs; round-robin: %d unfinished, p99 %.0f epochs",
		ll.Unfinished, ll.Arrived, ll.Latency.P99, rr.Unfinished, rr.Latency.P99)
	if ll.Unfinished*20 > ll.Arrived {
		t.Errorf("least-loaded left %d of %d jobs unfinished", ll.Unfinished, ll.Arrived)
	}
	if rr.Unfinished < 4*ll.Unfinished || rr.Latency.P99 < 2*ll.Latency.P99 {
		t.Errorf("round-robin kept up: %d unfinished (least-loaded %d), p99 %.0f (least-loaded %.0f)",
			rr.Unfinished, ll.Unfinished, rr.Latency.P99, ll.Latency.P99)
	}
}

func TestSpanSinkSelfTime(t *testing.T) {
	s := newSpanSink()
	lines := []string{
		`{"event":"span","name":"child","id":"c1","parent":"p","dur_ns":300}`,
		`{"event":"span","name":"child","id":"c2","parent":"p","dur_ns":200}`,
		`{"event":"span","name":"parent","id":"p","parent":"root","dur_ns":1000}`,
		`{"event":"span","name":"root","id":"root","dur_ns":1200}`,
		// A child that ends after its parent.
		`{"event":"span","name":"late","id":"l","parent":"root","dur_ns":100}`,
		`{"epoch":1,"event":"route.epoch"}`,
		`{"dur_ns":50,"event":"span","id":"x","name":"cache.lookup","outcome":"hit","parent":"y"}`,
		`{"converged":true,"dur_ns":70,"event":"span","id":"z","iterations":61,"name":"core.solve"}`,
	}
	for _, l := range lines {
		if _, err := s.Write([]byte(l + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	if s.err != nil {
		t.Fatal(s.err)
	}
	if got := s.agg("parent").Self; got != 500 {
		t.Errorf("parent self = %v, want 500ns", got)
	}
	if got := s.agg("root").Self; got != 100 {
		t.Errorf("root self = %v, want 100ns (1200 - 1000 - 100)", got)
	}
	if a := s.agg("cache.lookup"); a.Sel != 1 || a.SelTotal != 50 {
		t.Errorf("cache.lookup hits = %+v", a)
	}
	if a := s.agg("core.solve"); a.Iters != 61 {
		t.Errorf("core.solve iterations = %d, want 61", a.Iters)
	}
	if s.events["route.epoch"] != 1 {
		t.Errorf("events = %v", s.events)
	}
}

func TestSameAnswerIsBitExact(t *testing.T) {
	base := func() answer {
		return answer{ptrip: 0.125, strategies: map[string]coord.Strategy{
			"decision": {Class: "decision", Threshold: 3.5, SprintProb: 0.25, Ptrip: 0.125, Agents: 250},
		}}
	}
	if !sameAnswer(base(), base()) {
		t.Fatal("identical answers differ")
	}
	one := base()
	s := one.strategies["decision"]
	s.Threshold = math.Nextafter(s.Threshold, 4)
	one.strategies["decision"] = s
	if sameAnswer(base(), one) {
		t.Error("a threshold one ulp away matched")
	}
	two := base()
	two.ptrip = math.Nextafter(two.ptrip, 1)
	if sameAnswer(base(), two) {
		t.Error("a Ptrip one ulp away matched")
	}
}
