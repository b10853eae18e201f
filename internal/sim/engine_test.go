package sim

import (
	"errors"
	"math/rand"
	"testing"
)

type recorder struct {
	log   *[]string
	name  string
	phase string
}

func (r *recorder) Tick(cycle int64)   { *r.log = append(*r.log, r.name+"-tick") }
func (r *recorder) Commit(cycle int64) { *r.log = append(*r.log, r.name+"-commit") }

func TestEngineStepOrdering(t *testing.T) {
	var log []string
	e := NewEngine()
	e.AddTicker(&recorder{log: &log, name: "a"})
	e.AddTicker(&recorder{log: &log, name: "b"})
	e.AddCommitter(&recorder{log: &log, name: "c"})
	e.AddCommitter(&recorder{log: &log, name: "d"})

	e.Step()

	want := []string{"a-tick", "b-tick", "c-commit", "d-commit"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("log[%d] = %q, want %q", i, log[i], want[i])
		}
	}
	if e.Cycle() != 1 {
		t.Errorf("Cycle() = %d, want 1", e.Cycle())
	}
}

func TestEngineRun(t *testing.T) {
	e := NewEngine()
	e.Run(10)
	if e.Cycle() != 10 {
		t.Errorf("Cycle() = %d, want 10", e.Cycle())
	}
}

type countdown struct {
	n int
}

func (c *countdown) Tick(cycle int64) {
	if c.n > 0 {
		c.n--
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	c := &countdown{n: 7}
	e.AddTicker(c)

	got, err := e.RunUntil(func() bool { return c.n == 0 }, 100)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if got != 7 {
		t.Errorf("exit cycle = %d, want 7", got)
	}
}

func TestEngineRunUntilBudget(t *testing.T) {
	e := NewEngine()
	_, err := e.RunUntil(func() bool { return false }, 5)
	if !errors.Is(err, ErrMaxCyclesExceeded) {
		t.Fatalf("err = %v, want ErrMaxCyclesExceeded", err)
	}
	if e.Cycle() != 5 {
		t.Errorf("Cycle() = %d, want 5", e.Cycle())
	}
}

func TestEngineRunUntilAlreadyDone(t *testing.T) {
	e := NewEngine()
	got, err := e.RunUntil(func() bool { return true }, 0)
	if err != nil || got != 0 {
		t.Fatalf("RunUntil = (%d, %v), want (0, nil)", got, err)
	}
}

// sleeper ticks, counts evaluations, and reports idle whenever it has no
// pending work units.
type sleeper struct {
	work  int
	ticks []int64
}

func (s *sleeper) Tick(cycle int64) {
	s.ticks = append(s.ticks, cycle)
	if s.work > 0 {
		s.work--
	}
}

func (s *sleeper) Idle() bool { return s.work == 0 }

func TestEngineSleepsIdleComponents(t *testing.T) {
	e := NewEngine()
	s := &sleeper{work: 3}
	e.AddTicker(s)

	e.Run(10)

	// Idle is checked after each tick: the cycle-2 tick drains the last
	// work unit, so the component sleeps from cycle 3 on.
	want := []int64{0, 1, 2}
	if len(s.ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", s.ticks, want)
	}
	if e.Skipped() != 7 {
		t.Errorf("Skipped() = %d, want 7", e.Skipped())
	}
	if e.Evaluated() != 3 {
		t.Errorf("Evaluated() = %d, want 3", e.Evaluated())
	}
}

func TestEngineWakeResumesEvaluation(t *testing.T) {
	e := NewEngine()
	s := &sleeper{work: 1}
	h := e.AddTicker(s)

	e.Run(5) // ticks at cycle 0, sleeps from cycle 1
	s.work = 2
	h.Wake()
	e.Run(5) // ticks at cycles 5,6, sleeps again

	want := []int64{0, 5, 6}
	if len(s.ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", s.ticks, want)
	}
	for i := range want {
		if s.ticks[i] != want[i] {
			t.Errorf("ticks[%d] = %d, want %d", i, s.ticks[i], want[i])
		}
	}
}

func TestEngineAlwaysTickDisablesSleeping(t *testing.T) {
	e := NewEngine()
	s := &sleeper{}
	e.AddTicker(s)
	e.SetAlwaysTick(true)

	e.Run(4)

	if len(s.ticks) != 4 {
		t.Fatalf("ticks = %v, want every cycle", s.ticks)
	}
	if e.Skipped() != 0 {
		t.Errorf("Skipped() = %d, want 0", e.Skipped())
	}
}

func TestEngineSetAlwaysTickWakesSleepers(t *testing.T) {
	e := NewEngine()
	s := &sleeper{}
	e.AddTicker(s)

	e.Run(3) // sleeps after cycle 0
	e.SetAlwaysTick(true)
	e.Run(2)

	want := []int64{0, 3, 4}
	if len(s.ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", s.ticks, want)
	}
}

func TestNilHandleWakeIsSafe(t *testing.T) {
	var h *Handle
	h.Wake() // must not panic
	(&Handle{}).Wake()
}

func TestEngineImplementsClock(t *testing.T) {
	var c Clock = NewEngine()
	if c.Cycle() != 0 {
		t.Errorf("Cycle() = %d, want 0", c.Cycle())
	}
}

// event is one unit of work an actor performed.
type event struct {
	cycle int64
	id    int
}

// actor performs one unit of pending work per evaluation, logging it and
// running onWork, and reports Idle once none is left; an idle evaluation
// changes nothing but the evaluation count.
type actor struct {
	id     int
	work   int
	evals  int
	log    *[]event
	onWork func(cycle int64)
}

func (a *actor) Tick(cycle int64)   { a.eval(cycle) }
func (a *actor) Commit(cycle int64) { a.eval(cycle) }
func (a *actor) Idle() bool         { return a.work == 0 }

func (a *actor) eval(cycle int64) {
	a.evals++
	if a.work == 0 {
		return
	}
	a.work--
	*a.log = append(*a.log, event{cycle, a.id})
	if a.onWork != nil {
		a.onWork(cycle)
	}
}

// addActors registers n idle ticker actors (committers when commit is
// set) with ids starting at first.
func addActors(e *Engine, log *[]event, first, n int, commit bool) ([]*actor, []*Handle) {
	as := make([]*actor, n)
	hs := make([]*Handle, n)
	for i := range as {
		as[i] = &actor{id: first + i, log: log}
		if commit {
			hs[i] = e.AddCommitter(as[i])
		} else {
			hs[i] = e.AddTicker(as[i])
		}
	}
	return as, hs
}

// checkAwakeBits fails if an awake bitmap has a bit set past its list's
// end.
func checkAwakeBits(t *testing.T, e *Engine) {
	t.Helper()
	for _, s := range []*awakeSet{&e.tickAwake, &e.commitAwake} {
		if want := (s.n + 63) / 64; len(s.words) != want {
			t.Fatalf("%d components in %d words, want %d", s.n, len(s.words), want)
		}
		if r := s.n % 64; r != 0 && *s.words[len(s.words)-1]>>r != 0 {
			t.Fatalf("bit set past the last of %d components: %#x", s.n, *s.words[len(s.words)-1])
		}
	}
}

func sameEvents(t *testing.T, got, want []event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestEngineSamePhaseWakeOrder(t *testing.T) {
	for _, commit := range []bool{false, true} {
		var log []event
		e := NewEngine()
		as, hs := addActors(e, &log, 0, 3, commit)
		e.Step() // everything sleeps
		// 0 wakes 2, which runs in the same phase; 2 wakes 0, which
		// already ran, so 0 runs next cycle.
		as[0].onWork = func(int64) { as[2].work++; hs[2].Wake() }
		as[2].onWork = func(int64) {
			as[2].onWork = nil
			as[0].onWork = nil
			as[0].work++
			hs[0].Wake()
		}
		as[0].work = 1
		hs[0].Wake()
		e.Run(3)
		sameEvents(t, log, []event{{1, 0}, {1, 2}, {2, 0}})
		if as[1].evals != 1 {
			t.Errorf("commit=%v: sleeping component evaluated %d times, want 1", commit, as[1].evals)
		}
	}
}

func TestEngineWakesAcrossWordBoundaries(t *testing.T) {
	var log []event
	e := NewEngine()
	as, hs := addActors(e, &log, 0, 130, false)
	e.Step()
	for _, i := range []int{128, 64, 127, 63} {
		as[i].work = 1
		hs[i].Wake()
	}
	e.Step()
	sameEvents(t, log, []event{{1, 63}, {1, 64}, {1, 127}, {1, 128}})
	for i, a := range as {
		want := 1
		if i == 63 || i == 64 || i == 127 || i == 128 {
			want = 2
		}
		if a.evals != want {
			t.Errorf("component %d evaluated %d times, want %d", i, a.evals, want)
		}
	}
	checkAwakeBits(t, e)
}

func TestEngineAddTickerAfterSteps(t *testing.T) {
	var log []event
	e := NewEngine()
	as, hs := addActors(e, &log, 0, 70, false)
	e.Run(2)
	// Index 70 lands in the partially filled second word.
	late, lateH := addActors(e, &log, 70, 1, false)
	late[0].work = 1
	// Fill the second word, then index 128 opens a third.
	addActors(e, &log, 71, 57, false)
	newest, newestH := addActors(e, &log, 128, 1, false)
	newest[0].work = 1
	checkAwakeBits(t, e)
	as[5].work = 1
	hs[5].Wake()
	e.Step()
	sameEvents(t, log, []event{{2, 5}, {2, 70}, {2, 128}})
	late[0].work, newest[0].work = 1, 1
	lateH[0].Wake()
	newestH[0].Wake()
	e.Step()
	sameEvents(t, log[3:], []event{{3, 70}, {3, 128}})
	checkAwakeBits(t, e)
}

func TestEngineWakeAllMasksPartialWord(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		var log []event
		e := NewEngine()
		as, _ := addActors(e, &log, 0, n, false)
		cs, _ := addActors(e, &log, n, n/2+1, true)
		e.Step()
		e.RestoreCycle(10)
		checkAwakeBits(t, e)
		e.Step()
		if as[n-1].evals != 2 {
			t.Errorf("n=%d: after RestoreCycle the last component ran %d times, want 2", n, as[n-1].evals)
		}
		e.SetAlwaysTick(true)
		checkAwakeBits(t, e)
		e.SetAlwaysTick(false)
		// Burst expiry: keep everything busy long enough to trigger the
		// adaptive burst, then let it run out.
		e.SetAdaptive(true)
		for _, a := range append(as, cs...) {
			a.work = 2 * adaptiveBurst
		}
		e.Step()
		if e.burst == 0 {
			t.Fatalf("n=%d: no burst with every component busy", n)
		}
		for e.burst > 0 {
			e.Step()
			checkAwakeBits(t, e)
		}
	}
}

// TestEngineEvaluatedPlusSkipped checks the accounting identity on
// tracked, burst and mixed runs: every component is either evaluated or
// skipped exactly once per cycle.
func TestEngineEvaluatedPlusSkipped(t *testing.T) {
	const n, cycles = 100, 500
	for _, tc := range []struct {
		name     string
		adaptive bool
		busy     int // initial work per actor
	}{
		{"tracked", false, 3},
		{"burst", true, 2 * cycles},
		{"mixed", true, 150},
	} {
		var log []event
		e := NewEngine()
		e.SetAdaptive(tc.adaptive)
		as, hs := addActors(e, &log, 0, n/2, false)
		cs, chs := addActors(e, &log, n/2, n/2, true)
		as = append(as, cs...)
		hs = append(hs, chs...)
		for _, a := range as {
			a.work = tc.busy
		}
		bursts := 0
		for c := 0; c < cycles; c++ {
			if c%7 == 0 {
				i := c * 31 % n
				as[i].work++
				hs[i].Wake()
			}
			if e.burst > 0 {
				bursts++
			}
			e.Step()
		}
		if got := e.Evaluated() + e.Skipped(); got != cycles*n {
			t.Errorf("%s: Evaluated+Skipped = %d, want %d", tc.name, got, cycles*n)
		}
		if tc.adaptive && bursts == 0 {
			t.Errorf("%s: no burst steps", tc.name)
		}
		if tc.name == "mixed" && e.Skipped() == 0 {
			t.Errorf("%s: no skipped evaluations", tc.name)
		}
	}
}

// pulser never sleeps: on every period-th cycle it hands one unit of
// work to a target, while the shared budget lasts.
type pulser struct {
	period int64
	fire   func(cycle int64)
}

func (p *pulser) Tick(cycle int64) {
	if cycle%p.period == 0 {
		p.fire(cycle)
	}
}

func (p *pulser) Commit(cycle int64) { p.Tick(cycle) }

// runWakeGraph builds a seeded random wake graph of actors and pulsers
// split across both phases, runs it, and returns the work log.
func runWakeGraph(t *testing.T, seed int64, alwaysTick, adaptive bool) []event {
	const n, cycles = 200, 600
	rng := rand.New(rand.NewSource(seed))
	var log []event
	e := NewEngine()
	e.SetAlwaysTick(alwaysTick)
	e.SetAdaptive(adaptive)
	budget := 4000
	actors := make([]*actor, n)
	handles := make([]*Handle, n)
	give := func(j int) {
		if budget > 0 && actors[j] != nil {
			budget--
			actors[j].work++
			handles[j].Wake()
		}
	}
	for i := 0; i < n; i++ {
		commit := i >= n*6/10
		if i%23 == 0 {
			target := rng.Intn(n)
			p := &pulser{period: int64(3 + rng.Intn(9)), fire: func(int64) { give(target) }}
			if commit {
				e.AddCommitter(p)
			} else {
				e.AddTicker(p)
			}
			continue
		}
		a := &actor{id: i, log: &log, work: rng.Intn(3) * rng.Intn(2)}
		targets := make([]int, 1+rng.Intn(3))
		for k := range targets {
			targets[k] = rng.Intn(n)
		}
		a.onWork = func(cycle int64) { give(targets[(int(cycle)+a.work)%len(targets)]) }
		actors[i] = a
		if commit {
			handles[i] = e.AddCommitter(a)
		} else {
			handles[i] = e.AddTicker(a)
		}
	}
	e.Run(cycles)
	if got := e.Evaluated() + e.Skipped(); got != cycles*n {
		t.Errorf("Evaluated+Skipped = %d, want %d", got, cycles*n)
	}
	checkAwakeBits(t, e)
	return log
}

// TestEngineRandomWakeGraphMatchesAlwaysTick checks that the bitmap
// scheduler performs every unit of work in the same cycle and order as
// the naive reference on random wake graphs whose wakes cross both
// phases in both directions.
func TestEngineRandomWakeGraphMatchesAlwaysTick(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		want := runWakeGraph(t, seed, true, false)
		if len(want) < 1000 {
			t.Fatalf("seed %d: only %d work events; graph too quiet", seed, len(want))
		}
		sameEvents(t, runWakeGraph(t, seed, false, false), want)
		sameEvents(t, runWakeGraph(t, seed, false, true), want)
	}
}
