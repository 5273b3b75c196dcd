package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"twocs/internal/telemetry"
	"twocs/internal/units"
)

// This file is the engine's compile-once/re-time-many fast path. The
// paper's methodology prices one fixed iteration DAG under many hardware
// assumptions (§4.3.6 evolutions, Fig 13-15 projections): the op graph
// *shape* — IDs, dependencies, stream assignment — is constant across a
// grid, while only the durations change per point. Compile performs all
// validation, string interning and queue construction exactly once,
// lowering the schedule to dense int32 form; Program.RunReuse then
// replays the event loop over caller-owned scratch (NewState) with zero
// steady-state allocations, and Program.Summarize replays it without
// writing a trace at all.
//
// The event loop is completion-driven: an event costs the lanes it
// changes, not every lane. The running lanes sit in a compact list,
// each lane's rate is computed once per event, and an op can start
// only when a completion frees its lane or readies it at a lane's
// head, so only those lanes are checked. A lane running alone steps
// through its ops with no min-search. The float arithmetic — dt =
// remaining/rate, remaining -= dt*rate, now += dt, the 1e-18
// completion threshold, ties completing in one event — is that of the
// reference engine the tests compare against, so results are
// bit-identical to it.

// Program is a schedule compiled for repeated execution. The compiled
// form is immutable; one Program may be re-timed concurrently from many
// goroutines, each over its own RunState.
//
// A Program keeps no []Op: per op it holds an ID offset, a label index
// and a lane, plus the dependency edges: about 51 bytes an op, ID text
// included, on the Table-2 iterations. RunReuse rebuilds each span's Op
// from them.
type Program struct {
	// ids holds every op's ID back to back: op i's ID is
	// ids[idOff[i]:idOff[i+1]].
	ids   string
	idOff []int32
	// labels are the distinct op labels; op i's is labels[label[i]].
	labels []string
	label  []int32
	// lane[i] is the queue op i runs on, which gives its device and
	// stream. len(lane) is the op count.
	lane []int32

	// depIDs/depOff form CSR-style adjacency: op i depends on the ops
	// named depIDs[depOff[i]:depOff[i+1]], substrings of ids that the
	// spans RunReuse writes share as their Deps. users/userOff are the
	// edges reversed, by index: the ops waiting on op i are
	// users[userOff[i]:userOff[i+1]].
	depIDs  []string
	depOff  []int32
	users   []int32
	userOff []int32

	// queues are the per-(device,stream) in-order FIFO lanes, sorted by
	// (device, stream); each holds op indices in submission order.
	queues []progQueue
}

// progQueue is one compiled (device, stream) lane.
type progQueue struct {
	dev    int
	stream Stream
	ops    []int32
	// peers are the queue indices whose concurrently running op
	// interferes with this lane (compute vs communication on one
	// device, §4.3.7).
	peers []int32
	// compute and comm are the queue indices of the device's compute
	// and serialized-comm lanes (-1 when the device has none), the
	// lanes a comm lane's exposure is measured against.
	compute, comm int32
}

// Compile validates the schedule once and lowers it to the dense form
// the Program re-times: it rejects empty or duplicate IDs, negative
// devices, invalid durations and unknown dependencies. The Program
// copies what it keeps, so ops may be reused or dropped afterwards.
func Compile(ops []Op) (*Program, error) {
	telemetry.Active().Count("sim.program.compile", 1)
	n := len(ops)
	// The per-op int32 arrays share one allocation.
	k := make([]int32, 4*n+2)
	p := &Program{
		idOff:  k[: n+1 : n+1],
		depOff: k[n+1 : 2*n+2 : 2*n+2],
		label:  k[2*n+2 : 3*n+2 : 3*n+2],
		lane:   k[3*n+2:],
	}
	byID := make(map[string]int32, n)
	labelOf := make(map[string]int32, 8)
	nDeps, idLen := 0, 0
	for i, op := range ops {
		if op.ID == "" {
			return nil, fmt.Errorf("sim: op %d has empty ID", i)
		}
		if op.Device < 0 {
			return nil, fmt.Errorf("sim: op %q has negative device", op.ID)
		}
		if op.Duration < 0 || math.IsNaN(float64(op.Duration)) || math.IsInf(float64(op.Duration), 0) {
			return nil, fmt.Errorf("sim: op %q has invalid duration %v", op.ID, op.Duration)
		}
		if _, dup := byID[op.ID]; dup {
			return nil, fmt.Errorf("sim: duplicate op ID %q", op.ID)
		}
		byID[op.ID] = int32(i)
		nDeps += len(op.Deps)
		idLen += len(op.ID)
		l, ok := labelOf[op.Label]
		if !ok {
			l = int32(len(p.labels))
			labelOf[op.Label] = l
			p.labels = append(p.labels, op.Label)
		}
		p.label[i] = l
	}
	var ids strings.Builder
	ids.Grow(idLen)
	deps := make([]int32, 0, nDeps)
	for i, op := range ops {
		for _, d := range op.Deps {
			j, ok := byID[d]
			if !ok {
				return nil, fmt.Errorf("sim: op %q depends on unknown op %q", op.ID, d)
			}
			deps = append(deps, j)
		}
		p.depOff[i+1] = int32(len(deps))
		ids.WriteString(op.ID)
		p.idOff[i+1] = int32(ids.Len())
	}
	p.ids = ids.String()
	p.depIDs = make([]string, len(deps))
	for k, d := range deps {
		p.depIDs[k] = p.id(d)
	}
	// Reverse the edges into users/userOff (one allocation): count
	// each op's users, prefix-sum the counts into block starts, fill
	// the blocks using the starts as cursors (leaving each at the next
	// block's start), then shift the starts back into place.
	rev := make([]int32, n+1+len(deps))
	p.userOff, p.users = rev[:n+1], rev[n+1:]
	for _, d := range deps {
		p.userOff[d+1]++
	}
	for i := 0; i < n; i++ {
		p.userOff[i+1] += p.userOff[i]
	}
	for i := 0; i < n; i++ {
		for _, d := range deps[p.depOff[i]:p.depOff[i+1]] {
			p.users[p.userOff[d]] = int32(i)
			p.userOff[d]++
		}
	}
	if n > 0 {
		copy(p.userOff[1:n], p.userOff[:n-1])
		p.userOff[0] = 0
	}

	// Group ops into per-(device,stream) lanes, sorted by (device,
	// stream) to fix the start-scan order the event loop uses.
	type laneKey struct {
		dev    int
		stream Stream
	}
	laneOf := make(map[laneKey]int, 8)
	for i, op := range ops {
		k := laneKey{op.Device, op.Stream}
		qi, ok := laneOf[k]
		if !ok {
			qi = len(p.queues)
			laneOf[k] = qi
			p.queues = append(p.queues, progQueue{dev: op.Device, stream: op.Stream})
		}
		p.queues[qi].ops = append(p.queues[qi].ops, int32(i))
	}
	sort.Slice(p.queues, func(i, j int) bool {
		if p.queues[i].dev != p.queues[j].dev {
			return p.queues[i].dev < p.queues[j].dev
		}
		return p.queues[i].stream < p.queues[j].stream
	})
	for qi := range p.queues {
		q := &p.queues[qi]
		// The Program is long-lived: keep no slack from the appends.
		q.ops = slices.Clone(q.ops)
		for _, i := range q.ops {
			p.lane[i] = int32(qi)
		}
		q.compute, q.comm = -1, -1
		for pi := range p.queues {
			if p.queues[pi].dev != q.dev {
				continue
			}
			switch p.queues[pi].stream {
			case ComputeStream:
				q.compute = int32(pi)
			case CommStream:
				q.comm = int32(pi)
			}
			if pi == qi {
				continue
			}
			// Compute interferes with any comm lane on the device and
			// vice versa; the two comm lanes do not interfere.
			if q.stream == ComputeStream && p.queues[pi].stream.IsComm() ||
				q.stream.IsComm() && p.queues[pi].stream == ComputeStream {
				q.peers = append(q.peers, int32(pi))
			}
		}
	}
	return p, nil
}

// NumOps returns the number of ops in the compiled schedule.
func (p *Program) NumOps() int { return len(p.lane) }

// id returns op i's ID, a substring of the packed IDs.
func (p *Program) id(i int32) string { return p.ids[p.idOff[i]:p.idOff[i+1]] }

// RunState is the reusable scratch memory of one Program execution. A
// RunState is NOT safe for concurrent use: each goroutine re-timing a
// Program needs its own (dist.CompiledIteration pools them).
type RunState struct {
	owner     *Program
	remaining []float64
	startAt   []float64
	endAt     []float64
	pending   []int32   // per op: counts down to depOff[i] as its dependencies complete
	qpos      []int32   // per lane: the next op to start
	running   []int32   // per lane: running op index, -1 when idle
	rate      []float64 // per lane: healthy progress rate (1/fault factor)
	// run lists the running lanes and runRate their rates in the
	// current event; wake lists the lanes the last event may let start.
	run     []int32
	runRate []float64
	wake    []int32
	// ok reports whether the last run completed; Summary reads it.
	ok bool

	// Summary scratch, allocated on first use: lane q's merged busy
	// intervals are busy[busyOff[q]:busyOff[q+1]], and cover holds the
	// union of two lanes.
	busy    []interval
	busyOff []int32
	cover   []interval
	summary Summary
}

// NewState allocates scratch state for RunReuse and Summarize.
func (p *Program) NewState() *RunState {
	n, nq := p.NumOps(), len(p.queues)
	// The slices share one allocation per element type; each is capped,
	// so wake, which can outgrow nq, reallocates on its own.
	f := make([]float64, 3*n+2*nq)
	k := make([]int32, n+4*nq)
	return &RunState{
		owner:     p,
		remaining: f[:n:n],
		startAt:   f[n : 2*n : 2*n],
		endAt:     f[2*n : 3*n : 3*n],
		rate:      f[3*n : 3*n+nq : 3*n+nq],
		runRate:   f[3*n+nq:],
		pending:   k[:n:n],
		qpos:      k[n : n+nq : n+nq],
		running:   k[n+nq : n+2*nq : n+2*nq],
		run:       k[n+2*nq : n+2*nq : n+3*nq],
		wake:      k[n+3*nq : n+3*nq],
	}
}

// RunReuse executes the compiled schedule under the given per-op
// durations (indexed like the compiled ops) and config, over st (from
// NewState, owned by this Program, not used concurrently), and writes
// the trace into tr. Ops on one stream run in submission order (in-order
// streams); an op whose dependencies are not yet complete blocks its
// stream, and a circular wait fails as a deadlock. tr's span storage is
// reused (grown only when the op count exceeds its capacity), so steady
// state is zero allocs per run. tr must not be read concurrently with
// the call; its previous contents are overwritten.
//
// Each span's Op is rebuilt from the Program: its ID is a substring of
// the packed IDs, and its Deps (nil when it has none) a slice the
// Program keeps for every run: treat them as read-only.
//
//lint:hotpath
func (p *Program) RunReuse(st *RunState, durations []units.Seconds, cfg Config, tr *Trace) error {
	if tr == nil {
		return fmt.Errorf("sim: nil trace")
	}
	if err := p.execute(st, durations, cfg); err != nil {
		return err
	}
	tr.resize(p.NumOps())
	for i := range tr.Spans {
		tr.Spans[i] = Span{
			Op:    p.op(i, durations[i]),
			Start: units.Seconds(st.startAt[i]),
			End:   units.Seconds(st.endAt[i]),
		}
		if units.Seconds(st.endAt[i]) > tr.Makespan {
			tr.Makespan = units.Seconds(st.endAt[i])
		}
	}
	sortSpans(tr.Spans)
	return nil
}

// op rebuilds op i with duration d. Its Deps, nil when it has none,
// are shared with p: treat them as read-only.
func (p *Program) op(i int, d units.Seconds) Op {
	q := &p.queues[p.lane[i]]
	op := Op{
		ID:       p.id(int32(i)),
		Device:   q.dev,
		Stream:   q.stream,
		Duration: d,
		Label:    p.labels[p.label[i]],
	}
	if lo, hi := p.depOff[i], p.depOff[i+1]; lo < hi {
		op.Deps = p.depIDs[lo:hi:hi]
	}
	return op
}

// Summarize re-times the schedule like RunReuse but writes no trace:
// it returns the run's Summary, read straight from st (see
// RunState.Summary). Steady state is zero allocs per run.
//
//lint:hotpath
func (p *Program) Summarize(st *RunState, durations []units.Seconds, cfg Config) (*Summary, error) {
	if err := p.execute(st, durations, cfg); err != nil {
		return nil, err
	}
	return st.Summary(), nil
}

// execute replays the event loop under durations and cfg, leaving
// every op's start and end time in st.
//
// Each event advances the running lanes to the earliest completion
// under their current rates and retires every op that finishes then.
// Only a completion can start an op — it frees its own lane and may
// ready users queued at the head of other lanes — so an event wakes
// just those lanes instead of rescanning all of them, and a lane that
// runs alone steps op by op with no min-search.
func (p *Program) execute(st *RunState, durations []units.Seconds, cfg Config) error {
	if st == nil || st.owner != p {
		return fmt.Errorf("sim: run state does not belong to this program")
	}
	st.ok = false
	if len(durations) != p.NumOps() {
		return fmt.Errorf("sim: %d durations for %d ops", len(durations), p.NumOps())
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	slow := cfg.InterferenceSlowdown
	if slow < 1 {
		slow = 1
	}
	for i, d := range durations {
		if d < 0 || math.IsNaN(float64(d)) || math.IsInf(float64(d), 0) {
			return fmt.Errorf("sim: op %q has invalid duration %v", p.id(int32(i)), d)
		}
		st.remaining[i] = float64(d)
	}
	// pending[i] counts down from depOff[i+1] as op i's dependencies
	// complete; the op is ready when it reaches depOff[i].
	copy(st.pending, p.depOff[1:])
	wake := st.wake[:0]
	for q := range p.queues {
		st.qpos[q] = 0
		st.running[q] = -1
		st.rate[q] = 1 / cfg.Faults.factor(p.queues[q].dev, p.queues[q].stream)
		wake = append(wake, int32(q))
	}

	run := st.run[:0] // the running lanes, in no particular order
	now := 0.0
	left := p.NumOps()
	for left > 0 {
		// Start the ready head of every woken idle lane. A lane not
		// woken since it last failed to start still cannot.
		for _, q := range wake {
			if st.running[q] >= 0 {
				continue
			}
			lane := p.queues[q].ops
			if int(st.qpos[q]) >= len(lane) {
				continue
			}
			head := lane[st.qpos[q]]
			if st.pending[head] != p.depOff[head] {
				continue
			}
			st.startAt[head] = now
			st.running[q] = head
			st.qpos[q]++
			run = append(run, q)
		}
		wake = wake[:0]

		if len(run) == 0 {
			// Nothing runnable but work remains: circular dependency
			// (possibly through stream ordering).
			var stuck []string
			for q := range p.queues {
				for _, i := range p.queues[q].ops[st.qpos[q]:] {
					stuck = append(stuck, p.id(i))
				}
			}
			sort.Strings(stuck)
			return fmt.Errorf("sim: deadlock, %d ops blocked: %v", len(stuck), stuck)
		}

		if len(run) == 1 {
			// A lane running alone has no busy peer, so it progresses
			// at its fault rate; it steps op by op while its next
			// head is ready and no other lane wakes.
			q := run[0]
			r := st.rate[q]
			lane := p.queues[q].ops
			i := st.running[q]
			for {
				dt := st.remaining[i] / r
				if !(dt < math.Inf(1)) {
					// No finite step (x/0 or 0/0 at a zero rate):
					// take none, as a general event does.
					dt = 0
				}
				st.remaining[i] -= dt * r
				now += dt
				if st.remaining[i] > 1e-18 {
					continue
				}
				st.remaining[i] = 0
				st.endAt[i] = now
				left--
				wake = st.release(i, wake)
				next := st.qpos[q]
				if len(wake) > 0 || int(next) >= len(lane) || st.pending[lane[next]] != p.depOff[lane[next]] {
					st.running[q] = -1
					wake = append(wake, q)
					break
				}
				i = lane[next]
				st.startAt[i] = now
				st.running[q] = i
				st.qpos[q]++
			}
			run = run[:0]
			continue
		}

		// Advance to the earliest completion under current rates:
		// injected faults throttle unconditionally; interference
		// slows a lane (by 1/slow) while a peer lane is busy.
		dt := math.Inf(1)
		for k, q := range run {
			r := st.rate[q]
			if slow > 1 {
				for _, pi := range p.queues[q].peers {
					if st.running[pi] >= 0 {
						r /= slow
						break
					}
				}
			}
			st.runRate[k] = r
			if need := st.remaining[st.running[q]] / r; need < dt {
				dt = need
			}
		}
		if math.IsInf(dt, 1) {
			// All running ops have zero remaining work; they complete now.
			dt = 0
		}
		for k, q := range run {
			st.remaining[st.running[q]] -= dt * st.runRate[k]
		}
		now += dt
		kept := 0
		for _, q := range run {
			if i := st.running[q]; st.remaining[i] <= 1e-18 {
				st.remaining[i] = 0
				st.endAt[i] = now
				left--
				wake = st.release(i, wake)
				st.running[q] = -1
				wake = append(wake, q)
			} else {
				run[kept] = q
				kept++
			}
		}
		run = run[:kept]
	}
	st.run, st.wake = run, wake
	st.ok = true
	return nil
}

// release counts op i's completion against the ops that depend on it
// and appends to wake the lane of every user it readies, if that lane
// is idle. The caller still marks i's own lane busy, so that lane is
// never appended: the caller decides what runs there next.
func (st *RunState) release(i int32, wake []int32) []int32 {
	p := st.owner
	for _, u := range p.users[p.userOff[i]:p.userOff[i+1]] {
		st.pending[u]--
		if l := p.lane[u]; st.pending[u] == p.depOff[u] && st.running[l] < 0 {
			wake = append(wake, l)
		}
	}
	return wake
}

// sortSpans orders spans by (start time, op ID) — the trace's canonical
// deterministic order. slices.SortFunc keeps the re-time hot path
// allocation-free: sort.Sort boxes the slice into an interface and
// sort.Slice additionally builds a closure, each a per-run allocation.
func sortSpans(spans []Span) {
	slices.SortFunc(spans, func(a, b Span) int {
		if a.Start < b.Start {
			return -1
		}
		if a.Start > b.Start {
			return 1
		}
		return strings.Compare(a.Op.ID, b.Op.ID)
	})
}
