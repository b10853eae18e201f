// Package sim provides the synchronous cycle engine that drives the NoC
// simulator. Every hardware component registers with an Engine and is
// evaluated once per cycle in two phases: a tick phase in which components
// compute and stage their outputs, and a commit phase in which staged
// values (flits on links, returned credits) become visible to consumers.
// The two-phase scheme models registered synchronous hardware: nothing a
// component writes during a cycle can be observed by another component in
// the same cycle.
//
// Components are iterated in registration order and all simulator state is
// owned by the single goroutine calling Step, so identical configurations
// replay bit-for-bit identically.
//
// # Activity tracking
//
// At the paper's operating points most routers, links and NICs are idle
// most cycles, so the engine supports sleep/wake scheduling: a component
// that also implements Idler is put to sleep whenever it reports Idle after
// its evaluation, and is skipped on subsequent cycles until something wakes
// it through the Handle returned at registration (a flit or credit arriving
// on a link, a packet being enqueued at a NIC, ...).
//
// Sleeping preserves bit-exact determinism under one contract: a component
// reporting Idle must make its next evaluation a pure no-op (no state
// change, no counters, no external effects), and every transition out of
// idleness must be accompanied by a Handle.Wake call. Sleep state is one
// awake bitmap per component list (tickers, committers), bit i standing
// for the i-th registered component, and a tracked step visits only the
// set bits, in ascending order — so a cycle costs in proportion to the
// awake components, not the fabric, while awake components are still
// evaluated in exactly the order the naive engine would use. A component
// woken by an earlier one in the same phase runs in that phase; one woken
// by a later one runs next cycle, as in a registration-order walk.
// SetAlwaysTick(true) disables the skipping entirely, which the golden
// equivalence tests use to prove both paths produce identical results.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Ticker is evaluated in phase 1 of every cycle. Implementations read
// committed state from previous cycles and stage new outputs.
type Ticker interface {
	Tick(cycle int64)
}

// Committer is evaluated in phase 2 of every cycle, after every Ticker has
// run. Implementations publish staged outputs (e.g. move a flit across a
// link into the downstream buffer).
type Committer interface {
	Commit(cycle int64)
}

// Idler is optionally implemented by Tickers and Committers that can sleep.
// Idle is consulted right after the component's evaluation; returning true
// promises that evaluating the component again — in any later cycle and
// absent an intervening Wake — would be a pure no-op.
type Idler interface {
	Idle() bool
}

// Clock exposes the current cycle to components that are evaluated lazily:
// a sleeping component cannot rely on having observed every cycle number,
// so timestamps (injection cycles, δ deadlines) must come from the engine's
// clock instead of a remembered tick argument. *Engine implements Clock.
type Clock interface {
	Cycle() int64
}

// node is one registered component. Its sleep state is its bit in the
// owning list's awakeSet.
type node struct {
	ticker    Ticker
	committer Committer
	idler     Idler
}

// awakeSet is the sleep state of one component list: bit i%64 of word
// i/64 is set while the i-th registered component is awake. Words are
// allocated one at a time and never move, so a Handle keeps a pointer to
// its word across later registrations.
type awakeSet struct {
	words []*uint64
	n     int // registered components
}

// add registers one more component, awake, and returns its handle.
func (s *awakeSet) add() *Handle {
	i := s.n
	s.n++
	if i%64 == 0 {
		s.words = append(s.words, new(uint64))
	}
	h := &Handle{word: s.words[i/64], mask: 1 << (i % 64)}
	*h.word |= h.mask
	return h
}

// wakeAll sets every registered component's bit and no bit past the end.
func (s *awakeSet) wakeAll() {
	for _, w := range s.words {
		*w = ^uint64(0)
	}
	if r := s.n % 64; r != 0 {
		*s.words[len(s.words)-1] = 1<<r - 1
	}
}

// Handle wakes one registered component. Handles are safe to share with
// the component's peers (links wake their downstream router, controllers
// wake the NIC they enqueue into) and a nil *Handle ignores Wake calls, so
// components can be used without an engine in unit tests.
type Handle struct {
	word *uint64 // the component's awake-bitmap word
	mask uint64  // the component's bit in word
}

// Wake marks the component runnable again by setting its awake bit.
// Calling Wake on an already awake component (or on a nil handle) is a
// cheap no-op, so callers wake unconditionally on every potentially
// state-changing event. Duplicate wakes are coalesced with a
// read-before-write: at high load nearly every per-flit Wake hits an
// already set bit, and skipping the store keeps the word's cache line
// clean.
func (h *Handle) Wake() {
	if h != nil && h.word != nil && *h.word&h.mask == 0 {
		*h.word |= h.mask
	}
}

// ErrMaxCyclesExceeded reports that RunUntil hit its cycle budget before
// its predicate became true. Callers typically treat it as a deadlock or
// livelock diagnosis.
var ErrMaxCyclesExceeded = errors.New("sim: max cycles exceeded")

// ErrInterrupted reports that RunUntil stopped early because Interrupt was
// called. The simulation is left at a clean cycle boundary: the interrupt
// is honored between steps, never inside one, so harvested state (stats,
// telemetry, profiles) is consistent.
var ErrInterrupted = errors.New("sim: interrupted")

// Adaptive-mode tuning: when at least adaptiveNum/adaptiveDen of the
// registered components were awake in a tracked step, the engine runs the
// next adaptiveBurst cycles naively (no awake checks, no Idle calls) and
// then re-arms activity tracking. The threshold is where per-component
// bookkeeping costs more than the few skips it buys; the burst length
// amortizes the re-arm (one full evaluate-and-sleep pass) to ~1.5%.
const (
	adaptiveNum   = 3
	adaptiveDen   = 4
	adaptiveBurst = 64
)

// Engine owns the simulated clock and the component lists.
// The zero value is ready to use, with activity tracking enabled and the
// adaptive high-load fallback off (see SetAdaptive; the network layer
// turns it on for fully wired fabrics).
type Engine struct {
	cycle      int64
	tickers    []node
	committers []node
	alwaysTick bool

	// Sleep state: one awake bitmap per list, indexed like the list.
	tickAwake   awakeSet
	commitAwake awakeSet

	// Adaptive mode: when the still-awake fraction crosses the load
	// threshold, fall back to naive ticking for a burst of cycles, then
	// re-arm activity tracking.
	adaptive bool
	burst    int // remaining naive-burst cycles

	// Sharded backend (NewShardedEngine; see sharded.go). A non-empty
	// shards slice switches Step to the two-phase parallel schedule, with
	// the tickers/committers lists above serving as its serial sub-phases.
	shards []shard
	work   []chan workerOp // one signal channel per worker (shards[1:])
	wg     sync.WaitGroup

	evaluated uint64
	skipped   uint64

	// interrupted is set asynchronously (signal handlers) and polled by
	// RunUntil at cycle boundaries; see Interrupt.
	interrupted atomic.Bool

	// Stall watchdog (SetWatchdog; see watchdog.go). Polled by RunUntil a
	// few times per window, between steps only.
	watchdog       *Watchdog
	wdLastProgress uint64
	wdLastCycle    int64
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Cycle returns the number of completed cycles. During a Step it returns
// the cycle currently being evaluated, so it is the Clock components use
// to timestamp externally triggered work.
func (e *Engine) Cycle() int64 {
	return e.cycle
}

// RestoreCycle sets the simulated clock to c and wakes every registered
// component. Engine snapshots use it: a freshly built network restored
// onto mid-run state must resume at the captured cycle, and waking
// everything re-arms sleep/wake scheduling from scratch — by the Idle
// contract a spuriously woken component's next evaluation is a pure
// no-op, so the post-restore schedule matches the uninterrupted run
// bit for bit. Sharded engines keep no sleep state; only the clock moves.
func (e *Engine) RestoreCycle(c int64) {
	e.cycle = c
	e.burst = 0
	e.wakeAll()
}

// wakeAll marks every registered component awake.
func (e *Engine) wakeAll() {
	e.tickAwake.wakeAll()
	e.commitAwake.wakeAll()
}

// SetAlwaysTick disables (true) or re-enables (false) sleep/wake
// scheduling. With alwaysTick every component is evaluated every cycle —
// the naive reference path used by the golden equivalence tests.
func (e *Engine) SetAlwaysTick(v bool) {
	e.alwaysTick = v
	if v {
		e.burst = 0
		// Components that slept while tracking was on must not stay
		// skipped if tracking is re-enabled later mid-run: waking
		// everything keeps both toggle orders correct (an idle
		// evaluation is a no-op, so spurious wakes are harmless).
		e.wakeAll()
	}
}

// AlwaysTick reports whether sleep/wake scheduling is disabled.
func (e *Engine) AlwaysTick() bool { return e.alwaysTick }

// SetAdaptive enables or disables the high-load fallback (off by default;
// noc.New enables it): with it on, a tracked step in which at least 3/4 of
// the components stayed awake after their idle checks switches the engine
// to naive ticking for a burst of cycles, after which every component is
// woken and the next tracked step re-arms the sleep states. Naive steps
// evaluate every component in registration order — a superset of the
// tracked evaluation in which the extra calls are pure no-ops by the Idle
// contract — so toggling the mode never changes a schedule; it only moves
// the bookkeeping cost off the hot path when skipping pays for nothing.
func (e *Engine) SetAdaptive(v bool) {
	e.adaptive = v
	if !v {
		e.burst = 0
	}
}

// Adaptive reports whether the high-load naive fallback is enabled.
func (e *Engine) Adaptive() bool { return e.adaptive }

// Evaluated returns how many component evaluations ran; Skipped how many
// were elided by sleep/wake scheduling. Their sum is what the naive engine
// would have run, which makes the split a direct measure of the win.
func (e *Engine) Evaluated() uint64 { return e.evaluated }

// Skipped returns the number of component evaluations elided because the
// component was asleep.
func (e *Engine) Skipped() uint64 { return e.skipped }

// AddTicker registers a phase-1 component, awake. Order of registration
// is the order of evaluation. Register between steps, never from inside
// an evaluation. The returned handle wakes the component; callers that
// never sleep (components not implementing Idler) may ignore it.
func (e *Engine) AddTicker(t Ticker) *Handle {
	idler, _ := t.(Idler)
	e.tickers = append(e.tickers, node{ticker: t, idler: idler})
	return e.tickAwake.add()
}

// Reserve makes room for n more tickers and m more committers, so a
// caller that knows its component count registers them without regrowing
// the lists.
func (e *Engine) Reserve(n, m int) {
	e.tickers = slices.Grow(e.tickers, n)
	e.committers = slices.Grow(e.committers, m)
}

// AddCommitter registers a phase-2 component, under the same rules as
// AddTicker.
func (e *Engine) AddCommitter(c Committer) *Handle {
	idler, _ := c.(Idler)
	e.committers = append(e.committers, node{committer: c, idler: idler})
	return e.commitAwake.add()
}

// Step advances the simulation by exactly one cycle.
func (e *Engine) Step() {
	if len(e.shards) > 0 {
		e.stepSharded()
		return
	}
	cycle := e.cycle
	if e.alwaysTick {
		e.stepNaive(cycle)
		e.cycle++
		return
	}
	if e.burst > 0 {
		// Adaptive high-load fallback: tick naively (sleeping components'
		// evaluations are no-ops by the Idle contract, and registration
		// order is unchanged, so the schedule is bit-identical). When the
		// burst expires, wake everything so the next tracked step
		// re-evaluates each component once and re-arms its sleep state.
		e.stepNaive(cycle)
		e.burst--
		if e.burst == 0 {
			e.wakeAll()
		}
		e.cycle++
		return
	}
	// load counts components still awake after their idle check — the
	// measure the adaptive fallback thresholds on. Counting evaluations
	// instead would deadlock the heuristic: the post-burst re-arm step
	// evaluates everything by construction, and would always re-trigger
	// the next burst regardless of the actual load.
	tRan, tLoad := runAwake(e.tickers, &e.tickAwake, cycle, false)
	cRan, cLoad := runAwake(e.committers, &e.commitAwake, cycle, true)
	total := len(e.tickers) + len(e.committers)
	e.evaluated += uint64(tRan + cRan)
	e.skipped += uint64(total - tRan - cRan)
	if e.adaptive && (tLoad+cLoad)*adaptiveDen >= total*adaptiveNum {
		e.burst = adaptiveBurst
	}
	e.cycle++
}

// runAwake evaluates the awake components of one list in ascending index
// (registration) order, clearing the bit of each that reports Idle. It
// returns how many ran and how many stayed awake. The current word is
// re-read after every evaluation, masked above the current bit, so a
// component woken by an earlier one in the same phase still runs this
// cycle, exactly as a walk over the whole list would run it.
func runAwake(nodes []node, set *awakeSet, cycle int64, commit bool) (ran, load int) {
	for wi, w := range set.words {
		block := nodes[wi*64:]
		for word := *w; word != 0; {
			b := bits.TrailingZeros64(word)
			n := &block[b]
			if commit {
				n.committer.Commit(cycle)
			} else {
				n.ticker.Tick(cycle)
			}
			ran++
			if n.idler != nil && n.idler.Idle() {
				*w &^= 1 << b
			} else {
				load++
			}
			word = *w &^ (1<<(b+1) - 1)
		}
	}
	return ran, load
}

// stepNaive evaluates every component in registration order, awake or not.
func (e *Engine) stepNaive(cycle int64) {
	for i := range e.tickers {
		e.tickers[i].ticker.Tick(cycle)
	}
	for i := range e.committers {
		e.committers[i].committer.Commit(cycle)
	}
	e.evaluated += uint64(len(e.tickers) + len(e.committers))
}

// Run advances the simulation by n cycles.
func (e *Engine) Run(n int64) {
	for i := int64(0); i < n; i++ {
		e.Step()
	}
}

// Interrupt makes any in-progress or future RunUntil return ErrInterrupted
// at the next cycle boundary. Safe to call from any goroutine (nocsim's
// SIGINT handler uses it); the flag stays set so a run loop cannot race
// past it.
func (e *Engine) Interrupt() { e.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (e *Engine) Interrupted() bool { return e.interrupted.Load() }

// RunUntil steps the simulation until done reports true (checked before
// each step) or the budget of maxCycles additional cycles is exhausted.
// It returns the cycle count at exit and ErrMaxCyclesExceeded on budget
// exhaustion, or ErrInterrupted if Interrupt was called.
// When a watchdog is installed (SetWatchdog), a no-progress window turns
// into a *StallError wrapping ErrStalled instead of a spin to the budget.
func (e *Engine) RunUntil(done func() bool, maxCycles int64) (int64, error) {
	deadline := e.cycle + maxCycles
	var wdStride, wdNext int64
	if w := e.watchdog; w != nil && w.Progress != nil && w.Window > 0 {
		// Poll a few times per window: often enough that a stall is
		// reported within ~1.1 windows, rarely enough that the progress
		// sum is off the per-cycle path.
		wdStride = w.Window / 8
		if wdStride < 1 {
			wdStride = 1
		}
		wdNext = e.cycle + wdStride
	}
	for !done() {
		if e.interrupted.Load() {
			return e.cycle, ErrInterrupted
		}
		if e.cycle >= deadline {
			return e.cycle, fmt.Errorf("%w (budget %d)", ErrMaxCyclesExceeded, maxCycles)
		}
		if wdStride > 0 && e.cycle >= wdNext {
			wdNext = e.cycle + wdStride
			if stall := e.checkStall(); stall != nil {
				return e.cycle, stall
			}
		}
		e.Step()
	}
	return e.cycle, nil
}
