package dist

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"twocs/internal/hw"
	"twocs/internal/kernels"
	"twocs/internal/model"
	"twocs/internal/sim"
	"twocs/internal/telemetry"
	"twocs/internal/units"
)

// evolvedTimer builds a Timer for the plan on a future-hardware variant
// of its cluster, the way the evolution grids re-price one schedule.
func evolvedTimer(t *testing.T, p Plan, evo hw.Evolution) *Timer {
	t.Helper()
	p.Cluster = evo.ApplyCluster(p.Cluster)
	calc, err := kernels.NewCalculator(p.Cluster.Node.Device)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := NewTimer(p, calc)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// TestCompileIterationMatchesBuild is the compiled path's equivalence
// gate: for every shape class (DP=1, DP>1, bucketing) and for timers
// the program was NOT compiled under, Refill+Run must reproduce
// BuildIteration+Compile+RunReuse bit-for-bit.
func TestCompileIterationMatchesBuild(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		opts ScheduleOptions
	}{
		{"tp-only", testPlan(2, 1), ScheduleOptions{}},
		{"tp-dp", testPlan(2, 2), ScheduleOptions{InterferenceSlowdown: 1.3}},
		{"bucketed", testPlan(2, 2), ScheduleOptions{DPBucketLayers: 2}},
		{"faults", testPlan(2, 2), ScheduleOptions{Faults: sim.Faults{CommSlowdown: 2}}},
	}
	evos := []hw.Evolution{hw.Identity(), hw.FlopVsBWScenario(4)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c *CompiledIteration
			for _, evo := range evos {
				timer := evolvedTimer(t, tc.plan, evo)
				ops, err := BuildIteration(tc.plan, timer, tc.opts)
				if err != nil {
					t.Fatalf("BuildIteration: %v", err)
				}
				want, err := runOps(ops, sim.Config{
					InterferenceSlowdown: tc.opts.InterferenceSlowdown,
					Faults:               tc.opts.Faults,
				})
				if err != nil {
					t.Fatalf("runOps: %v", err)
				}
				cc, err := CompileIteration(tc.plan, timer, tc.opts)
				if err != nil {
					t.Fatalf("CompileIteration: %v", err)
				}
				if c == nil {
					c = cc
				} else if c != cc {
					t.Fatal("CompileIteration returned a new instance for a cached shape")
				}
				rep, got, err := cc.Run(timer, sim.Config{
					InterferenceSlowdown: tc.opts.InterferenceSlowdown,
					Faults:               tc.opts.Faults,
				})
				if err != nil {
					t.Fatalf("CompiledIteration.Run: %v", err)
				}
				if want.Makespan != got.Makespan {
					t.Fatalf("evo %s: makespan %v (built) vs %v (compiled)", evo.Name, want.Makespan, got.Makespan)
				}
				if !reflect.DeepEqual(want.Spans, got.Spans) {
					t.Fatalf("evo %s: traces diverged", evo.Name)
				}
				wantRep, err := RunIteration(tc.plan, timer, tc.opts)
				if err != nil {
					t.Fatalf("RunIteration: %v", err)
				}
				if *rep != wantRep {
					t.Fatalf("evo %s: reports diverged: %+v vs %+v", evo.Name, rep, wantRep)
				}
				if *reportFrom(want) != wantRep {
					t.Fatalf("evo %s: RunIteration report diverged from the built trace's", evo.Name)
				}
			}
		})
	}
}

// TestCompileIterationCacheKey checks what does and does not share a
// compiled program: model name, DP degree and hardware must share;
// TP degree, bucketing and layer count must not.
func TestCompileIterationCacheKey(t *testing.T) {
	base := testPlan(2, 2)
	timer := newTimer(t, base)
	c0, err := CompileIteration(base, timer, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}

	renamed := base
	renamed.Model.Name = "tiny-prime"
	if c, _ := CompileIteration(renamed, newTimer(t, renamed), ScheduleOptions{}); c != c0 {
		t.Error("renamed model should share the compiled program")
	}
	wider := testPlan(2, 4)
	if c, _ := CompileIteration(wider, newTimer(t, wider), ScheduleOptions{}); c != c0 {
		t.Error("different DP degree (still >1) should share the compiled program")
	}
	evolved := base
	evolved.Cluster = hw.FlopVsBWScenario(2).ApplyCluster(base.Cluster)
	if c, _ := CompileIteration(evolved, newTimer(t, evolved), ScheduleOptions{}); c != c0 {
		t.Error("evolved hardware should share the compiled program")
	}

	tp4 := testPlan(4, 2)
	if c, _ := CompileIteration(tp4, newTimer(t, tp4), ScheduleOptions{}); c == c0 {
		t.Error("different TP degree must not share the compiled program")
	}
	if c, _ := CompileIteration(base, timer, ScheduleOptions{DPBucketLayers: 2}); c == c0 {
		t.Error("different bucketing must not share the compiled program")
	}
	deeper := base
	deeper.Model.Layers++
	if c, _ := CompileIteration(deeper, newTimer(t, deeper), ScheduleOptions{}); c == c0 {
		t.Error("different layer count must not share the compiled program")
	}
	dp1 := testPlan(2, 1)
	if c, _ := CompileIteration(dp1, newTimer(t, dp1), ScheduleOptions{}); c == c0 {
		t.Error("DP=1 must not share a DP>1 compiled program")
	}
}

// freshShapes numbers the shapes TestCompileIterationBuildsOnce
// compiles, so that every run of it (-count) starts with a cold cache.
var freshShapes atomic.Int32

// TestCompileIterationBuildsOnce releases eight goroutines together on
// a shape no other call has compiled: exactly one misses the cache and
// compiles it, the rest wait for that build, and all share its result.
func TestCompileIterationBuildsOnce(t *testing.T) {
	p := testPlan(2, 2)
	p.Model.Layers = 100 + int(freshShapes.Add(1))
	timer := newTimer(t, p)
	col := telemetry.NewCollector()
	telemetry.Enable(col)
	defer telemetry.Enable(nil)

	const workers = 8
	got := make([]*CompiledIteration, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			got[w], errs[w] = CompileIteration(p, timer, ScheduleOptions{})
		}(w)
	}
	close(start)
	wg.Wait()
	telemetry.Enable(nil)

	for w := range got {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if got[w] == nil || got[w] != got[0] {
			t.Fatalf("worker %d got program %p, worker 0 got %p", w, got[w], got[0])
		}
	}
	snap := col.Snapshot()
	for name, want := range map[string]int64{
		"sim.program.compile":    1,
		"dist.programcache.miss": 1,
		"dist.programcache.hit":  workers - 1,
	} {
		if n, _ := snap.Counter(name); n != want {
			t.Errorf("%s = %d, want %d", name, n, want)
		}
	}
	// Compiling prices each class once, outside Timer.Time: it records
	// no per-op histograms.
	for _, h := range snap.Histograms {
		if strings.HasPrefix(h.Name, "dist.op.") {
			t.Errorf("compile recorded %s (%d observations)", h.Name, h.Count)
		}
	}
}

// TestRefillValidation covers the refill hook's guard rails.
func TestRefillValidation(t *testing.T) {
	p := testPlan(2, 2)
	timer := newTimer(t, p)
	c, err := CompileIteration(p, timer, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Refill(nil, nil); err == nil {
		t.Error("expected nil-timer error")
	}
	other := testPlan(4, 2)
	if _, err := c.Refill(newTimer(t, other), nil); err == nil || !strings.Contains(err.Error(), "TP") {
		t.Errorf("expected TP-mismatch error, got %v", err)
	}
	// Refill must reuse a caller buffer of sufficient capacity.
	buf := make([]units.Seconds, 0, c.Program().NumOps())
	out, err := c.Refill(timer, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[:1][0] {
		t.Error("Refill reallocated despite sufficient capacity")
	}
}

// TestCompiledRunMatchesBuildZoo pins the ops a compiled iteration
// rebuilds to the ones it was compiled from: for every Table-2 model at
// TP 1 and 8 (where 8 divides it) and DP 1 and 4, each span of
// CompiledIteration.Run's trace must carry the whole Op that
// BuildIteration built (ID, Label, Deps, Device, Stream and Duration).
// The run's times and critical path are sim's TestProgramMatchesReferenceZoo.
func TestCompiledRunMatchesBuildZoo(t *testing.T) {
	runs := 0
	for _, e := range model.Zoo() {
		for _, tp := range []int{1, 8} {
			if !e.Config.TPDivides(tp) {
				continue
			}
			for _, dp := range []int{1, 4} {
				p := zooPlan(e.Config, tp, dp)
				timer := newTimer(t, p)
				ops, err := BuildIteration(p, timer, ScheduleOptions{})
				if err != nil {
					t.Fatal(err)
				}
				c, err := CompileIteration(p, timer, ScheduleOptions{})
				if err != nil {
					t.Fatal(err)
				}
				_, tr, err := c.Run(timer, sim.Config{})
				if err != nil {
					t.Fatal(err)
				}
				// Spans are in start order; IDs are unique (Compile
				// rejects duplicates), so equal counts and a match per
				// span cover every built op once.
				built := make(map[string]sim.Op, len(ops))
				for _, op := range ops {
					built[op.ID] = op
				}
				if len(tr.Spans) != len(ops) {
					t.Fatalf("%s tp=%d dp=%d: %d spans for %d built ops", e.Config.Name, tp, dp, len(tr.Spans), len(ops))
				}
				for i, s := range tr.Spans {
					if op := built[s.Op.ID]; !reflect.DeepEqual(s.Op, op) {
						t.Fatalf("%s tp=%d dp=%d: span %d op diverged:\nbuilt    %+v\ncompiled %+v",
							e.Config.Name, tp, dp, i, op, s.Op)
					}
				}
				runs++
			}
		}
	}
	if runs == 0 {
		t.Fatal("no zoo plan ran")
	}
}

// compiledBytesPerOpBound is the live heap a compiled iteration may
// keep per op: 57.4 B/op measured over the scaling and case studies'
// Table-2 shapes, rounded up. It read 147 B/op while the Program kept
// the []sim.Op it was compiled from (and the scratch pool's New
// captured it). CI's "Alloc contracts" step runs
// TestCompiledIterationHeapPerOp by name; raising the bound is an
// explicit reviewable change here.
const compiledBytesPerOpBound = 58

// TestCompiledIterationHeapPerOp pins what a compiled iteration keeps.
// It compiles, outside the memo, every (model, TP) shape the scaling
// and case studies run over the Table-2 zoo (TP 1 to 128 where it
// divides the model, DP > 1), keeps the results alive and bounds the
// live-heap growth per op after two GCs.
func TestCompiledIterationHeapPerOp(t *testing.T) {
	type shape struct {
		plan  Plan
		timer *Timer
	}
	var shapes []shape
	for _, e := range model.Zoo() {
		for tp := 1; tp <= 128; tp *= 2 {
			if e.Config.TPDivides(tp) {
				p := zooPlan(e.Config, tp, 4)
				shapes = append(shapes, shape{p, newTimer(t, p)})
			}
		}
	}
	compileAll := func() ([]*CompiledIteration, int) {
		kept := make([]*CompiledIteration, len(shapes))
		ops := 0
		for i, s := range shapes {
			c, err := compileIteration(s.plan, s.timer, ScheduleOptions{})
			if err != nil {
				t.Fatal(err)
			}
			kept[i] = c
			ops += c.Program().NumOps()
		}
		return kept, ops
	}
	// A first pass fills the process caches that pricing touches, so
	// the measured pass grows the heap by the programs alone.
	compileAll()
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	kept, ops := compileAll()
	after := live()
	runtime.KeepAlive(kept)
	perOp := (float64(after) - float64(before)) / float64(ops)
	t.Logf("%d shapes, %d ops: live heap +%.2f MB, %.1f B/op",
		len(shapes), ops, (float64(after)-float64(before))/(1<<20), perOp)
	if perOp > compiledBytesPerOpBound {
		t.Fatalf("compiled iterations keep %.1f B/op, bound is %d", perOp, compiledBytesPerOpBound)
	}
}
