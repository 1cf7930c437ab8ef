package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanID identifies a span within one tracer; 0 means "no parent".
type spanID int32

// span is one timed call into a layer. Spans that serve the same
// request share req.
type span struct {
	id, parent spanID
	name, req  string
	start, end time.Duration // since the tracer started
}

// layer names the module a span belongs to: the part of its name before
// the first dot ("deps.build" -> "deps").
func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the timed code paths are the
// same with and without tracing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(parent spanID, name, req string) spanID {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: spanID(len(t.spans) + 1), parent: parent, name: name, req: req, start: now})
	return spanID(len(t.spans))
}

// end closes the span opened as id and returns its duration.
func (t *tracer) end(id spanID) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.end = now
	return s.end - s.start
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the time
// its direct children cover. Children of one span never overlap here:
// every span with children is opened and closed by one goroutine that
// waits for each child in turn.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent != 0 {
			self[s.parent-1] -= s.end - s.start
		}
	}
	return self
}

// selfMSByName sums self time per span name, in milliseconds.
func selfMSByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, d := range selfTimes(spans) {
		out[spans[i].name] += ms(d)
	}
	return out
}

// writeSpans writes every span, one per line, followed by the self time
// of each layer.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# id\tparent\tname\treq\tstart_us\tend_us")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.req, s.start.Microseconds(), s.end.Microseconds())
	}
	self := selfTimes(spans)
	byLayer := make(map[string]time.Duration)
	count := make(map[string]int)
	for i, s := range spans {
		byLayer[s.layer()] += self[i]
		count[s.layer()]++
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	fmt.Fprintln(w, "# self time per layer: layer\tself_ms\tspans")
	for _, l := range layers {
		fmt.Fprintf(w, "# %s\t%.3f\t%d\n", l, ms(byLayer[l]), count[l])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
