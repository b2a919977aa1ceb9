package main

// Spans recorded around the benchmark's own calls into each layer's public
// API. A tracer keeps every span in memory; the traced run dumps them as
// JSON when it ends and prints each layer's self time. A nil *tracer is the
// untraced mode: every method is a no-op, so the untraced passes run the
// same code without recording anything.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"text/tabwriter"
	"time"
)

// span is one timed call: name, interval, the span that caused it (-1 for
// a root), and the document or cell it worked on.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Doc    string        `json:"doc"`
}

type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent int, doc string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Doc: doc})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// dump writes every span as one JSON array.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTime is one span name's share of the run.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes sums, per span name, the duration and the self time: the span's
// interval minus the union of its children's intervals clipped to it.
// Children on other goroutines may overlap; the union counts them once.
func (t *tracer) selfTimes() []layerTime {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerTime{}
	for id, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			byName[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.count++
		lt.total += dur
		lt.self += dur - covered(s, children[id])
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, reach time.Duration
	for _, v := range ivs {
		if v.a > reach {
			reach = v.a
		}
		if v.b > reach {
			sum += v.b - reach
			reach = v.b
		}
	}
	return sum
}

// printSelfTimes writes the per-layer self-time table, per traced pass.
func printSelfTimes(w io.Writer, layers []layerTime, passes int) {
	if passes < 1 {
		passes = 1
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcalls/pass\ttotal s/pass\tself s/pass\t")
	for _, lt := range layers {
		fmt.Fprintf(tw, "%s\t%.1f\t%.6f\t%.6f\t\n", lt.name,
			float64(lt.count)/float64(passes), lt.total.Seconds()/float64(passes), lt.self.Seconds()/float64(passes))
	}
	tw.Flush()
}
