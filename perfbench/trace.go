package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around that call. Spans of one operation share op; parent is the
// id of the enclosing span (0 for an operation's root).
type span struct {
	name       string
	op, id     int
	parent     int
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// opRun is one closed-loop operation in progress: it times calls into the
// layers (always — the end-to-end metrics need the times) and, when the
// operation is traced, records each call as a span and accumulates the
// layers' counters.
type opRun struct {
	tr    *tracer // nil: untraced
	stack []int
	next  int
	st    opStats
	// seed is the run's input seed, index the operation's place in the
	// run (0 = the warm-up; the spans' operation id), dir the run's
	// scratch directory.
	seed  int64
	index int
	dir   string
}

// mark is an open timed call.
type mark struct {
	id    int
	start time.Time
}

// begin opens a timed call named after the layer function it wraps.
func (o *opRun) begin(name string) mark {
	m := mark{start: time.Now()}
	if o.tr != nil {
		o.next++
		m.id = o.next
		parent := 0
		if n := len(o.stack); n > 0 {
			parent = o.tr.spans[o.stack[n-1]].id
		}
		o.tr.spans = append(o.tr.spans, span{name: name, op: o.index, id: m.id, parent: parent,
			start: m.start.Sub(o.tr.epoch)})
		o.stack = append(o.stack, len(o.tr.spans)-1)
	}
	return m
}

// end closes the innermost open call and returns its duration.
func (o *opRun) end(m mark) time.Duration {
	now := time.Now()
	if o.tr != nil {
		i := o.stack[len(o.stack)-1]
		o.stack = o.stack[:len(o.stack)-1]
		o.tr.spans[i].end = now.Sub(o.tr.epoch)
		if o.tr.spans[i].id != m.id {
			panic(fmt.Sprintf("perfbench: span %q closed out of order", o.tr.spans[i].name))
		}
	}
	return now.Sub(m.start)
}

// add accumulates a per-layer quantity; untraced operations skip it.
func (o *opRun) add(name string, v float64) {
	if o.st.layer != nil {
		o.st.layer[name] += v
	}
}

// traced reports whether this operation records spans and counters.
func (o *opRun) traced() bool { return o.tr != nil }

// check records one correctness check of the operation.
func (o *opRun) check(ok bool, format string, args ...any) bool {
	o.st.attempted++
	if !ok {
		o.st.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// selfTime sums each span name's total and self time (duration minus the
// part covered by its child spans) and call count over the whole run.
type selfTime struct {
	name        string
	total, self time.Duration
	calls       int
}

func (t *tracer) selfTimes() []selfTime {
	type key struct{ op, id int }
	child := map[key]time.Duration{}
	for _, s := range t.spans {
		if s.parent != 0 {
			child[key{s.op, s.parent}] += s.end - s.start
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range t.spans {
		st := byName[s.name]
		if st == nil {
			st = &selfTime{name: s.name}
			byName[s.name] = st
		}
		d := s.end - s.start
		st.total += d
		st.self += d - child[key{s.op, s.id}]
		st.calls++
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// writeChrome writes the spans as Chrome Trace Event JSON (complete "X"
// events, microsecond timestamps), which Perfetto opens next to the
// simulator's own `nocsim -trace` output. The provenance rides on the
// process-name metadata event.
func (t *tracer) writeChrome(w io.Writer, process string, prov provenance) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.spans)+1)
	events = append(events, event{Name: "process_name", Ph: "M", Pid: 1, Tid: 1,
		Args: map[string]any{"name": process, "provenance": prov}})
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"op": s.op, "id": s.id, "parent": s.parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
