// Package shard runs one simulation across multiple OS threads by spatial
// decomposition: the platform is partitioned into shards (a contiguous
// fabric region plus the masters attached to it), each shard advances on
// its own sim.Engine/goroutine, and the shards synchronise with
// conservative time windows.
//
// The protocol is SPMD. Every shard executes the same round loop over the
// same shared, barrier-published data (per-shard horizons and completion
// flags), so every shard computes identical window bounds and identical
// stop decisions without a coordinator:
//
//	round:  W  = min over shards of the published wake horizon
//	        T  = min(max(W, c+1), segment target)
//	        RunTo(T)            — compute, exporting cut flits into rings
//	        barrier
//	        Exchange + publish  — import rings, refresh credits, publish
//	                              horizon and local completion at T
//	        barrier
//
// Whenever any shard is active in the current cycle its horizon equals the
// current cycle, every window degenerates to a single cycle, and boundary
// exchange delivers each crossing flit exactly one cycle after it was
// pushed — the same timing an uncut link provides under the fabric's
// conservative flow control. Multi-cycle windows only ever span globally
// quiescent stretches, which carry no cross-shard traffic at all. Together
// with the fabric's cycle-start credit view (see internal/noc)
// this makes the simulated state a pure function of the partition-invariant
// round schedule: any shard count, including one, computes byte-identical
// results. The sweep harness and CI pin exactly that equivalence.
//
// Completion is likewise decided on shared data only: each shard publishes
// its local predicate at every boundary, and a round starts by checking the
// conjunction, so all shards agree on the completion cycle for any shard
// count and any host schedule — and stop together on the stride boundary
// that follows it, where a single engine would stop (see shardLoop).
//
// # Guarding
//
// EnableGuard arms the runner's watchdogs (see internal/guard). The guard
// verdicts ride the same SPMD discipline as completion: every shard sums
// the barrier-published progress/live counters and reaches the identical
// deadlock verdict in the identical round, and shard 0 publishes the
// wall-clock budget verdict in its slot, so all shards stop together
// without a new synchronisation mechanism — which is also what keeps
// fault-free guarded runs byte-identical to unguarded ones for every shard
// count. On a guarded runner a device panic, a barrier stall or an
// invariant break surfaces as a typed *guard.Violation error (with shard
// context and a diagnostic dump) instead of a panic or a hang, and the
// runner latches dead: every later call returns the same violation. An
// unguarded runner keeps the legacy behaviour of re-raising device panics.
package shard

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"noctg/internal/guard"
	"noctg/internal/sim"
)

// Exchanger is one shard's window-boundary hook: Exchange imports the
// flits other shards exported during the closing window (returning how
// many), and Wake re-arms the shard's fabric device in its engine's
// schedule after an import. noc.Region implements it.
type Exchanger interface {
	Exchange() int
	Wake()
}

// Shard is one unit of parallelism: an engine holding the shard's devices,
// the boundary exchanger, and the shard-local completion predicate (all
// local masters done and the local region drained). Done must read only
// shard-local state — it is evaluated concurrently with other shards'
// predicates. Progress and Live are the optional guard probes (a monotone
// local retirement count and the local pool's in-flight contribution);
// like Done they run on the shard's own goroutine and must read only
// shard-local state.
type Shard struct {
	Engine    *sim.Engine
	Exchanger Exchanger
	Done      func() bool
	Progress  func() uint64
	Live      func() int
}

// slot is one shard's barrier-published state. Slots are padded apart so
// the per-round stores of neighbouring shards do not false-share a cache
// line.
type slot struct {
	horizon uint64 // engine wake horizon as of the last boundary
	// progress and live are the shard's guard probes as of the last
	// boundary (zero when unguarded or unprobed).
	progress uint64
	live     int64
	sense    uint32 // this shard's private barrier sense
	// btrip is shard 0's published wall-clock budget verdict: every shard
	// reads slots[0].btrip after the barrier, so the whole fleet trips in
	// the same round.
	btrip uint32
	done  bool // local completion as of the last boundary
	_     [31]byte
}

// poisonBox carries the first panic out of a worker — with the shard that
// raised it and its stack — so every participant and the caller can
// re-raise (unguarded) or convert it to a Violation (guarded) instead of
// deadlocking at a barrier.
type poisonBox struct {
	v     any
	shard int
	stack []byte
}

// gshard is one shard's private deadlock-horizon tracker. Every shard
// updates its own from the identical published sums, so the verdicts stay
// SPMD; the padding keeps the per-round writes from false sharing.
type gshard struct {
	lastProgress uint64
	lastCycle    uint64
	haveBase     bool
	_            [40]byte
}

// guardState holds the runner's armed watchdogs.
type guardState struct {
	cfg  guard.Config
	scan func() *guard.Violation
	diag func() *guard.Diagnostic

	// start/rounds/tripped drive the wall-clock budget; they are touched
	// only by shard 0 (the caller's goroutine).
	start   time.Time
	rounds  uint32
	tripped bool

	states []gshard
}

// budgetRoundMask amortises the budget's time.Now() to one syscall per 64
// rounds.
const budgetRoundMask = 63

// Runner synchronises a set of shards. All methods must be called from a
// single goroutine (the platform's run loop); the Runner spawns and joins
// one worker goroutine per extra shard for each segment it executes.
type Runner struct {
	shards []*Shard
	wins   []*sim.WindowedRun
	slots  []slot
	wg     sync.WaitGroup

	// workers[i] drives shard i+1 through one segment, reading the bound
	// and completion stride from target and stride. The closures are built
	// once in New: spawning a niladic func value allocates nothing, so
	// steady-state segments stay off the heap entirely. target and stride
	// are plain fields — they are written before the spawns and the
	// goroutine start/join edges order them.
	workers []func()
	target  uint64
	stride  uint64

	count  atomic.Int32
	sense  atomic.Uint32
	poison atomic.Pointer[poisonBox]

	// liveWorkers counts segment goroutines that have not finished segDone
	// yet; the guarded bounded join spins on it instead of allocating a
	// channel and timer per segment.
	liveWorkers atomic.Int32

	// guard is nil until EnableGuard. gv is shard 0's loop-top verdict for
	// the current segment (written on the caller's goroutine only); dead
	// latches the first violation so every later call fails fast instead
	// of re-entering a broken barrier protocol.
	guard *guardState
	gv    *guard.Violation
	dead  error
}

// New builds a runner over the shards. The shards' engines must be fully
// populated: New opens a persistent windowed session (sim.BeginWindowed)
// on each one, which snapshots the device set.
func New(shards []*Shard) *Runner {
	if len(shards) == 0 {
		panic("shard: New with no shards")
	}
	r := &Runner{
		shards: shards,
		wins:   make([]*sim.WindowedRun, len(shards)),
		slots:  make([]slot, len(shards)),
	}
	for i, sh := range shards {
		r.wins[i] = sh.Engine.BeginWindowed()
	}
	r.workers = make([]func(), len(shards)-1)
	for i := range r.workers {
		s := i + 1
		r.workers[i] = func() { r.segWorker(s) }
	}
	return r
}

// Shards returns the shard count.
func (r *Runner) Shards() int { return len(r.shards) }

// Cycle returns the common cycle all shards have advanced to. Valid
// between segments (all engines agree there).
func (r *Runner) Cycle() uint64 { return r.shards[0].Engine.Cycle() }

// EnableGuard arms the runner's watchdogs: the deadlock horizon and run
// budget from cfg (checked at every round boundary), the barrier-stall
// bound on barrier waits, and — when cfg.Conservation is set and scan is
// non-nil — an invariant scan at every segment end. diag, when non-nil,
// captures the diagnostic dump attached to violations (the runner appends
// per-shard window state). Call before the first segment.
func (r *Runner) EnableGuard(cfg guard.Config, scan func() *guard.Violation, diag func() *guard.Diagnostic) {
	r.guard = &guardState{cfg: cfg, scan: scan, diag: diag, states: make([]gshard, len(r.shards))}
}

// barrierSpin bounds the busy-wait before yielding the thread. On hosts
// with fewer cores than shards a waiting spinner may be occupying the very
// CPU the straggler needs, so the barrier must always fall back to the
// scheduler.
const barrierSpin = 128

// await is a sense-reversing barrier across all shards. The atomic
// count/sense pair orders every write made before the barrier ahead of
// every read after it, which is the only synchronisation the cut-link
// rings and credit counters need. A poisoned runner (a panicking peer)
// re-raises inside the wait so no shard spins forever; on a guarded
// runner a wait exceeding the barrier-stall bound poisons the runner with
// a KindBarrierStall violation instead of spinning forever behind a hung
// peer.
func (r *Runner) await(s int) {
	ns := r.slots[s].sense ^ 1
	r.slots[s].sense = ns
	if int(r.count.Add(1)) == len(r.shards) {
		r.count.Store(0)
		r.sense.Store(ns)
		return
	}
	var stall time.Duration
	if g := r.guard; g != nil {
		stall = g.cfg.BarrierStall
	}
	var deadline time.Time
	for spin := 0; r.sense.Load() != ns; spin++ {
		if p := r.poison.Load(); p != nil {
			panic(p.v)
		}
		if spin > barrierSpin {
			runtime.Gosched()
			if stall > 0 && spin&1023 == 0 {
				// The wall clock is consulted once per 1024 yields: cheap
				// enough to leave armed, frequent enough to trip within
				// microseconds of the deadline.
				if deadline.IsZero() {
					deadline = time.Now().Add(stall)
				} else if time.Now().After(deadline) {
					v := &guard.Violation{Kind: guard.KindBarrierStall, Cycle: r.shards[s].Engine.Cycle(), Shard: s,
						Msg: fmt.Sprintf("waited longer than %v at a window barrier (%d of %d shards arrived)",
							stall, r.count.Load(), len(r.shards))}
					r.poisonShard(v, s)
					panic(v)
				}
			}
		}
	}
}

// poisonShard records the first failure with its shard context; raw panics
// also capture the raising goroutine's stack.
func (r *Runner) poisonShard(v any, s int) {
	b := &poisonBox{v: v, shard: s}
	if _, ok := v.(*guard.Violation); !ok {
		b.stack = debug.Stack()
	}
	r.poison.CompareAndSwap(nil, b)
}

// asViolation converts the poison into the typed violation a guarded
// caller returns.
func (b *poisonBox) asViolation(cycle uint64) *guard.Violation {
	if v, ok := b.v.(*guard.Violation); ok {
		return v
	}
	return &guard.Violation{Kind: guard.KindPanic, Cycle: cycle, Shard: b.shard,
		Msg: fmt.Sprint(b.v), Stack: string(b.stack)}
}

// allDone reports the published global completion predicate. Every shard
// evaluates it over the same barrier-published flags, so all reach the
// same verdict in the same round.
func (r *Runner) allDone() bool {
	for i := range r.slots {
		if !r.slots[i].done {
			return false
		}
	}
	return true
}

// minHorizon is the conservative global window bound: no shard acts — and
// in particular exports nothing — before it.
func (r *Runner) minHorizon() uint64 {
	w := r.slots[0].horizon
	for i := 1; i < len(r.slots); i++ {
		if h := r.slots[i].horizon; h < w {
			w = h
		}
	}
	return w
}

// publishGuard publishes shard s's guard probes into its slot during the
// boundary publish step (between the barriers, like horizon/done). Shard 0
// additionally publishes the wall-clock budget verdict.
func (r *Runner) publishGuard(s int, sl *slot) {
	sh := r.shards[s]
	if sh.Progress != nil {
		sl.progress = sh.Progress()
	}
	if sh.Live != nil {
		sl.live = int64(sh.Live())
	}
	if s == 0 {
		sl.btrip = r.guard.budgetCheck()
	}
}

// budgetCheck evaluates the wall-clock budget (shard 0 only). Once tripped
// it stays tripped.
func (g *guardState) budgetCheck() uint32 {
	if g.tripped {
		return 1
	}
	if g.cfg.RunBudget <= 0 {
		return 0
	}
	g.rounds++
	if g.rounds&budgetRoundMask != 0 {
		return 0
	}
	if time.Since(g.start) > g.cfg.RunBudget {
		g.tripped = true
		return 1
	}
	return 0
}

// guardVerdict evaluates the SPMD watchdogs at a round top over
// barrier-published data only, so every shard reaches the identical
// verdict in the identical round — the property that lets a violation
// stop all shards together without extra synchronisation, and keeps the
// trip cycle itself independent of the shard count. It allocates only when
// a verdict fires.
func (r *Runner) guardVerdict(s int, c uint64) *guard.Violation {
	g := r.guard
	if r.slots[0].btrip != 0 {
		return &guard.Violation{Kind: guard.KindBudget, Cycle: c, Shard: -1,
			Msg: fmt.Sprintf("wall-clock run budget %v exceeded", g.cfg.RunBudget)}
	}
	if g.cfg.NoRetireHorizon == 0 {
		return nil
	}
	var prog uint64
	var live int64
	for i := range r.slots {
		prog += r.slots[i].progress
		live += r.slots[i].live
	}
	st := &g.states[s]
	if !st.haveBase || prog != st.lastProgress || live <= 0 {
		// Retirement, or legitimate quiescence: the horizon restarts here.
		st.haveBase = true
		st.lastProgress = prog
		st.lastCycle = c
		return nil
	}
	if c-st.lastCycle >= g.cfg.NoRetireHorizon {
		return &guard.Violation{Kind: guard.KindDeadlock, Cycle: c, Shard: -1,
			Msg: fmt.Sprintf("no packet retired for %d cycles with %d in flight (horizon %d)",
				c-st.lastCycle, live, g.cfg.NoRetireHorizon)}
	}
	return nil
}

// shardLoop is the SPMD body every shard runs for one segment: publish the
// entry state, then rounds of compute / exchange until the shared stop
// condition (the segment target, completion, or a guard verdict) fires —
// identically on every shard.
//
// Completion follows the single engine's stop rule (sim.Engine.RunEvery):
// once the predicate holds at cycle c the segment target shrinks to the
// first stride boundary at or after c, counted from the segment start —
// the first boundary being start+stride, since the engine never evaluates
// the predicate before executing a stride. The remaining rounds run a
// finished, quiescent platform up to that boundary. Every shard derives
// the new target from the same published flags in the same round, and the
// platform's predicate is monotone, so the boundary is stable.
func (r *Runner) shardLoop(s int, target, stride uint64) {
	sh := r.shards[s]
	win := r.wins[s]
	sl := &r.slots[s]
	g := r.guard
	c := sh.Engine.Cycle()
	start := c
	sl.horizon = win.NextWake()
	sl.done = sh.Done()
	if g != nil {
		r.publishGuard(s, sl)
	}
	r.await(s)
	for {
		if r.allDone() {
			target = min(target, start+max((c-start+stride-1)/stride, 1)*stride)
		}
		if c >= target {
			return
		}
		if g != nil {
			if v := r.guardVerdict(s, c); v != nil {
				if s == 0 {
					r.gv = v
				}
				return
			}
		}
		t := c + 1
		if w := r.minHorizon(); w > t {
			t = w
		}
		if t > target {
			t = target
		}
		win.RunTo(t)
		r.await(s)
		if sh.Exchanger != nil && sh.Exchanger.Exchange() > 0 {
			sh.Exchanger.Wake()
		}
		sl.horizon = win.NextWake()
		sl.done = sh.Done()
		if g != nil {
			r.publishGuard(s, sl)
		}
		r.await(s)
		c = t
	}
}

// segWorker drives one non-caller shard through a segment, converting a
// device panic into runner poison instead of killing the process.
func (r *Runner) segWorker(s int) {
	defer r.segDone(s)
	r.shardLoop(s, r.target, r.stride)
}

func (r *Runner) segDone(s int) {
	if v := recover(); v != nil {
		r.poisonShard(v, s)
	}
	// Done before the live decrement: once liveWorkers reads zero, every
	// worker has already passed its wg.Done, so the joiner's wg.Wait cannot
	// block.
	r.wg.Done()
	r.liveWorkers.Add(-1)
}

// runShard0 runs the caller's shard, poisoning the runner on a panic so
// the workers drain out of their barriers; runSegment re-raises (legacy)
// or converts the poison (guarded) after the join.
func (r *Runner) runShard0() {
	defer func() {
		if v := recover(); v != nil {
			r.poisonShard(v, 0)
		}
	}()
	r.shardLoop(0, r.target, r.stride)
}

// joinWorkers joins the segment's goroutines. A guarded runner with a
// barrier-stall bound uses a bounded join: once shard 0 has returned,
// every healthy peer is on its way out of the same round, so a join that
// outlasts the grace period means a shard is genuinely hung (the condition
// the stall watchdog exists for) and the runner gives the workers up
// rather than hanging its caller. The bound is a spin/yield wait on the
// live-worker count — no channel, goroutine or timer — so the healthy path
// stays allocation-free.
func (r *Runner) joinWorkers() error {
	g := r.guard
	if g == nil || g.cfg.BarrierStall <= 0 {
		r.wg.Wait()
		return nil
	}
	grace := 4 * g.cfg.BarrierStall
	if grace < time.Second {
		grace = time.Second
	}
	var deadline time.Time
	for spin := 0; r.liveWorkers.Load() != 0; spin++ {
		if spin > barrierSpin {
			runtime.Gosched()
			if spin&1023 == 0 {
				if deadline.IsZero() {
					deadline = time.Now().Add(grace)
				} else if time.Now().After(deadline) {
					return &guard.Violation{Kind: guard.KindBarrierStall, Cycle: r.shards[0].Engine.Cycle(), Shard: -1,
						Msg: fmt.Sprintf("a shard worker failed to join within %v of segment end; runner abandoned", grace)}
				}
			}
		}
	}
	r.wg.Wait()
	return nil
}

// attachDiag attaches the diagnostic dump (fabric state plus per-shard
// window state) to a violation. The diag probe walks device state a
// violation may have left mid-tick-inconsistent, so it runs under its own
// recover: losing the dump must never lose the violation.
func (r *Runner) attachDiag(v *guard.Violation) {
	g := r.guard
	if g == nil {
		return
	}
	if v.Diag == nil && g.diag != nil {
		func() {
			defer func() { _ = recover() }()
			v.Diag = g.diag()
		}()
	}
	if v.Diag == nil {
		return
	}
	for i := range r.shards {
		sl := &r.slots[i]
		v.Diag.Shards = append(v.Diag.Shards, guard.ShardWindow{
			Shard: i, Cycle: r.shards[i].Engine.Cycle(), Horizon: sl.horizon,
			Done: sl.done, Progress: sl.progress, Live: sl.live,
		})
	}
}

// runSegment advances all shards from their common cycle by at most window
// cycles, stopping early on completion (shardLoop's stop rule; stride 0
// means 1) or when a guard verdict fires. It returns the executed cycle
// count, the predicate's final value, and the violation (as an error) on a
// guarded runner. Goroutines are spawned per segment and fully joined
// before it returns; a dead (or, unguarded, poisoned) runner fails fast.
func (r *Runner) runSegment(window, stride uint64) (uint64, bool, error) {
	if r.dead != nil {
		return 0, false, r.dead
	}
	if p := r.poison.Load(); p != nil {
		// Only an unguarded runner can be poisoned without being dead:
		// preserve the legacy re-raise contract.
		panic(p.v)
	}
	if g := r.guard; g != nil && g.start.IsZero() {
		g.start = time.Now()
	}
	start := r.shards[0].Engine.Cycle()
	r.target = start + window
	r.stride = max(stride, 1)
	r.liveWorkers.Store(int32(len(r.workers)))
	for _, w := range r.workers {
		r.wg.Add(1)
		go w()
	}
	r.runShard0()
	if err := r.joinWorkers(); err != nil {
		// Workers may still be running: do not touch shared state beyond
		// latching the runner dead.
		r.dead = err
		return r.shards[0].Engine.Cycle() - start, false, err
	}
	n := r.shards[0].Engine.Cycle() - start
	if p := r.poison.Load(); p != nil {
		if r.guard == nil {
			panic(p.v)
		}
		v := p.asViolation(r.shards[0].Engine.Cycle())
		r.attachDiag(v)
		r.dead = v
		return n, false, v
	}
	if r.gv != nil {
		v := r.gv
		r.gv = nil
		r.attachDiag(v)
		r.dead = v
		return n, false, v
	}
	if g := r.guard; g != nil && g.cfg.Conservation && g.scan != nil {
		if v := g.scan(); v != nil {
			if v.Cycle == 0 {
				v.Cycle = r.shards[0].Engine.Cycle()
			}
			r.attachDiag(v)
			r.dead = v
			return n, false, v
		}
	}
	return n, r.allDone(), nil
}

// Run simulates until the completion predicate holds or maxCycles elapse,
// with sim.Engine.RunEvery's contract (the stop rule of shardLoop; the
// error wraps sim.ErrMaxCycles on budget exhaustion). On a guarded runner
// a watchdog violation is returned as the *guard.Violation error itself.
func (r *Runner) Run(maxCycles, stride uint64) error {
	_, done, err := r.runSegment(maxCycles, stride)
	if err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("%w (%d cycles)", sim.ErrMaxCycles, maxCycles)
	}
	return nil
}

// Advance runs at most cycles cycles without regard for completion (the
// segment still stops early, on the exact cycle, if the workload finishes)
// and returns the executed count. It is the benchmarking hook: steady
// state allocates nothing, so throughput measurements see only the
// simulation itself. The error is non-nil only on a guarded runner whose
// watchdogs fired.
func (r *Runner) Advance(cycles uint64) (uint64, error) {
	n, _, err := r.runSegment(cycles, 1)
	return n, err
}

// RunPhased executes the warmup → measure → drain plan (see sim.Phases.Run,
// the one copy of its sequencing) across the shards: a window is one
// segment. Results and errors are those of sim.Engine.RunPhased, and a
// guard violation propagates immediately from any phase.
func (r *Runner) RunPhased(p sim.Phases, maxCycles uint64) (sim.PhasedResult, error) {
	return p.Run(maxCycles, r.Cycle, r.runSegment)
}
