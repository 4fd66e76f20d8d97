package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"sprintgame/internal/telemetry"
)

// spanSink is the io.Writer behind the traced run's telemetry.Tracer. It
// folds the JSONL stream into per-name aggregates as it arrives, so a
// long traced phase keeps only open spans in memory.
//
// Self time is a span's duration minus the time its child spans took.
// Children of one span run one after another on every path the
// benchmark traces, so their durations are summed rather than merged as
// intervals. A child that ends after its parent — the server's
// coord.request can finish after the client's coord.client.request has
// already received the response — is subtracted from the parent's
// aggregate when it arrives.
type spanSink struct {
	aggs   map[string]*spanAgg
	events map[string]int64         // non-span events by name
	child  map[string]time.Duration // child time of spans not yet ended
	// ended and older map recently ended spans to their aggregate, for
	// late children. Late children trail their parent by microseconds,
	// so two generations of endedGen spans each are enough.
	ended, older map[string]*spanAgg
	err          error
}

const endedGen = 1 << 16

// spanAgg aggregates every span of one name.
type spanAgg struct {
	Count int64
	Total time.Duration
	Self  time.Duration
	// Filtered aggregates keep the spans a per-layer metric selects:
	// cache.lookup hits, non-memoized coord.pool, and the solver
	// iterations reported by core.solve.
	Sel      int64
	SelTotal time.Duration
	Iters    int64
}

// field returns the raw JSON value of key in one flat JSON object line,
// nil when absent. Tracer lines are flat objects whose string values
// are span names, hex IDs and short labels, so a key is found by its
// quoted name after '{' or ','. This keeps the sink cheap enough that
// it does not dominate the spans it measures.
func field(line []byte, key string) []byte {
	pat := `"` + key + `":`
	for off := 0; ; {
		i := bytes.Index(line[off:], []byte(pat))
		if i < 0 {
			return nil
		}
		i += off
		if i > 0 && (line[i-1] == '{' || line[i-1] == ',') {
			v := line[i+len(pat):]
			if len(v) > 0 && v[0] == '"' {
				if end := bytes.IndexByte(v[1:], '"'); end >= 0 {
					return v[1 : end+1]
				}
				return nil
			}
			end := bytes.IndexAny(v, ",}")
			if end < 0 {
				return nil
			}
			return v[:end]
		}
		off = i + len(pat)
	}
}

func newSpanSink() *spanSink {
	return &spanSink{
		aggs:   make(map[string]*spanAgg),
		events: make(map[string]int64),
		child:  make(map[string]time.Duration),
		ended:  make(map[string]*spanAgg),
	}
}

// Write implements io.Writer. The tracer writes one whole line per call
// under its own lock.
func (s *spanSink) Write(p []byte) (int, error) {
	event := field(p, "event")
	if event == nil {
		if s.err == nil {
			s.err = fmt.Errorf("trace line without an event: %q", p)
		}
		return len(p), nil
	}
	if string(event) != "span" {
		s.events[string(event)]++
		return len(p), nil
	}
	name, id, parent := field(p, "name"), string(field(p, "id")), string(field(p, "parent"))
	durNS, err := strconv.ParseInt(string(field(p, "dur_ns")), 10, 64)
	if err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("span without a duration: %q", p)
		}
		return len(p), nil
	}
	dur := time.Duration(durNS)
	a := s.aggs[string(name)]
	if a == nil {
		a = &spanAgg{}
		s.aggs[string(name)] = a
	}
	a.Count++
	a.Total += dur
	a.Self += dur - s.child[id]
	delete(s.child, id)
	if len(s.ended) >= endedGen {
		s.older, s.ended = s.ended, make(map[string]*spanAgg)
	}
	s.ended[id] = a
	switch string(name) {
	case "cache.lookup":
		if string(field(p, "outcome")) == "hit" {
			a.Sel++
			a.SelTotal += dur
		}
	case "coord.pool":
		if string(field(p, "memoized")) == "false" {
			a.Sel++
			a.SelTotal += dur
		}
	case "core.solve":
		iters, _ := strconv.ParseInt(string(field(p, "iterations")), 10, 64)
		a.Iters += iters
	}
	if parent != "" {
		if pa, ok := s.ended[parent]; ok {
			pa.Self -= dur
		} else if pa, ok := s.older[parent]; ok {
			pa.Self -= dur
		} else {
			s.child[parent] += dur
		}
	}
	return len(p), nil
}

// agg returns the aggregate for name, zero when no span of that name
// was seen.
func (s *spanSink) agg(name string) spanAgg {
	if a := s.aggs[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// callTimer times calls the benchmark makes into a module's public
// functions.
type callTimer struct {
	Count int64
	Total time.Duration
}

func (c *callTimer) add(d time.Duration) { c.Count++; c.Total += d }

// meanNS is the mean call time in nanoseconds, 0 for no calls.
func (c *callTimer) meanNS() float64 {
	if c.Count == 0 {
		return 0
	}
	return float64(c.Total) / float64(c.Count)
}

// layerRow is one line of the traced run's per-layer table.
type layerRow struct {
	Name  string
	Kind  string // "span" or "call"
	Count int64
	Total time.Duration
	Self  time.Duration
}

// printLayerTable writes the per-span and per-call table of a traced
// run, sorted by self time.
func printLayerTable(w io.Writer, sink *spanSink, calls map[string]*callTimer) {
	var rows []layerRow
	if sink != nil {
		for name, a := range sink.aggs {
			rows = append(rows, layerRow{name, "span", a.Count, a.Total, a.Self})
		}
	}
	for name, c := range calls {
		if c.Count > 0 {
			rows = append(rows, layerRow{name, "call", c.Count, c.Total, c.Total})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Name < rows[j].Name
	})
	fmt.Fprintf(w, "%-26s %-5s %10s %12s %12s %12s\n", "span/call", "kind", "count", "total_ms", "self_ms", "self_us/op")
	for _, r := range rows {
		per := 0.0
		if r.Count > 0 {
			per = float64(r.Self) / float64(r.Count) / 1e3
		}
		fmt.Fprintf(w, "%-26s %-5s %10d %12.3f %12.3f %12.3f\n", r.Name, r.Kind, r.Count,
			float64(r.Total)/1e6, float64(r.Self)/1e6, per)
	}
	if sink != nil && len(sink.events) > 0 {
		names := make([]string, 0, len(sink.events))
		for n := range sink.events {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-26s %-5s %10d\n", n, "event", sink.events[n])
		}
	}
}

// armedTracer is a clocked tracer whose sink sees events only while
// armed, so set-up spans stay out of the timed phase's table and the
// sink can be read once the tracer is disarmed.
type armedTracer struct {
	t    *telemetry.Tracer
	mu   sync.Mutex
	open bool
	sink *spanSink
}

func newArmedTracer(sink *spanSink) *armedTracer {
	a := &armedTracer{sink: sink}
	a.t = telemetry.NewTracer(a).WithClock(time.Now)
	return a
}

// Write implements io.Writer for the tracer.
func (a *armedTracer) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.open {
		return len(p), nil
	}
	return a.sink.Write(p)
}

func (a *armedTracer) arm() { a.set(true) }

// disarm stops delivery and reports a tracer write failure or a line
// the sink could not read. The sink is safe to read afterwards.
func (a *armedTracer) disarm() error {
	a.set(false)
	if err := a.t.Err(); err != nil {
		return err
	}
	return a.sink.err
}

func (a *armedTracer) set(open bool) {
	a.mu.Lock()
	a.open = open
	a.mu.Unlock()
}
