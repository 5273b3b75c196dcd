package dist

import (
	"fmt"
	"slices"
	"sync"

	"twocs/internal/memo"
	"twocs/internal/model"
	"twocs/internal/sim"
	"twocs/internal/telemetry"
	"twocs/internal/units"
)

// The grid studies re-simulate the same iteration-schedule *shape* —
// op IDs, dependencies, stream assignment — under hundreds of hardware
// scenarios: an evolution grid varies FLOPs and bandwidth, a robustness
// sweep varies faults, but none of them change the op graph. This file
// caches the compiled sim.Program per shape and refills only the
// durations per point, the schedule-level half of the engine's
// compile-once/re-time-many design (see internal/sim/program.go).

// CompiledIteration pairs the compiled simulator Program of one
// iteration-schedule shape with the price classes that refill its
// durations under any Timer of the same TP degree. Instances are
// immutable and safe for concurrent use; sweep workers share one.
type CompiledIteration struct {
	prog    *sim.Program
	pricing iterPricing
	// tp is the TP degree the schedule was compiled for, the one a
	// refill timer must have.
	tp int

	scratch sync.Pool // *iterScratch
}

// iterScratch is the reusable memory of one re-time: the refilled
// durations and the engine's run state.
type iterScratch struct {
	durs []units.Seconds
	st   *sim.RunState
}

// Program returns the compiled schedule. Callers must treat it as
// read-only.
func (c *CompiledIteration) Program() *sim.Program { return c.prog }

// Refill prices every op of the compiled schedule under timer, writing
// into dst (grown if needed) and returning the filled slice — the
// duration-refill hook of the compile-once/re-time-many loop. Each
// price class is priced once. The timer must have the TP degree the
// schedule was compiled for; its hardware (Calculator, cost models)
// and DP degree are free to differ. With telemetry on, every op still
// feeds its dist.op.*.sim_ns histogram, in op order, as Timer.Time
// would.
func (c *CompiledIteration) Refill(timer *Timer, dst []units.Seconds) ([]units.Seconds, error) {
	if timer == nil {
		return nil, fmt.Errorf("dist: nil timer")
	}
	if timer.TP != c.tp {
		return nil, fmt.Errorf("dist: timer TP %d does not match compiled TP %d", timer.TP, c.tp)
	}
	dst, err := c.pricing.prices(timer, dst)
	if err != nil {
		return nil, err
	}
	classes, opClass := c.pricing.classes, c.pricing.opClass
	if tel := telemetry.Active(); tel != nil {
		for i, k := range opClass {
			tel.Observe(opSimMetric(classes[k].Kind), telemetry.SimNanos(float64(dst[i])))
		}
	}
	return dst, nil
}

// Report refills durations under timer, re-times the compiled program
// and returns the iteration's report, read from the run's summary
// without building a trace. Its scratch memory is pooled: steady state
// is zero allocs per call.
//
//lint:hotpath
func (c *CompiledIteration) Report(timer *Timer, cfg sim.Config) (IterationReport, error) {
	sc := c.scratch.Get().(*iterScratch)
	defer c.scratch.Put(sc)
	durs, err := c.Refill(timer, sc.durs)
	if err != nil {
		return IterationReport{}, err
	}
	sum, err := c.prog.Summarize(sc.st, durs, cfg)
	if err != nil {
		return IterationReport{}, err
	}
	return reportOf(sum), nil
}

// Run is Report plus the run's trace, for the callers that draw or
// export the iteration (gantt, its Chrome trace, CriticalPath).
func (c *CompiledIteration) Run(timer *Timer, cfg sim.Config) (*IterationReport, *sim.Trace, error) {
	sc := c.scratch.Get().(*iterScratch)
	defer c.scratch.Put(sc)
	durs, err := c.Refill(timer, sc.durs)
	if err != nil {
		return nil, nil, err
	}
	trace := &sim.Trace{}
	if err := c.prog.RunReuse(sc.st, durs, cfg, trace); err != nil {
		return nil, nil, err
	}
	rep := reportOf(sc.st.Summary())
	return &rep, trace, nil
}

// iterKey identifies an iteration-schedule shape: the model config
// (Name normalized away), the TP degree (which scales every operator
// descriptor), whether DP collectives exist at all (their durations,
// like everything else, are refilled per timer), and the DP bucket
// size, the one shape-affecting schedule option. Cluster, hardware and
// the DP degree are deliberately absent: they price ops, they don't
// shape the graph.
type iterKey struct {
	shape   model.Config
	tp      int
	dpMulti bool
	bucket  int
}

func iterShape(c model.Config) model.Config {
	c.Name = ""
	return c
}

// programMemoEntries bounds the compiled-program memo. A twocs command
// compiles at most 7 shapes and perfbench's simulate workload 41 (zoo
// models × TP degrees plus the case-study plans); the bound sits six
// times above that. An entry keeps ~58 bytes per op
// (TestCompiledIterationHeapPerOp), ~210 KB for the largest Table-2
// shape (3,658 ops), so a full memo of those holds ~54 MB.
const programMemoEntries = 256

var programMemo = memo.New[iterKey, *CompiledIteration]("dist.programcache", nil, programMemoEntries, 0, nil)

// CompileIteration returns the compiled program for the plan's
// iteration-schedule shape, building it once on first use and serving
// every later call (any hardware, any DP degree, any study) from a
// process-wide bounded memo. The plan is validated per call, so invalid
// plans never consult the memo. Concurrent callers of a new shape wait
// for its one build; a failed build is dropped, so a later call builds
// again.
func CompileIteration(p Plan, timer *Timer, opts ScheduleOptions) (*CompiledIteration, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if timer == nil {
		return nil, fmt.Errorf("dist: nil timer")
	}
	bucket := opts.DPBucketLayers
	if bucket < 1 || p.DP == 1 {
		bucket = 1
	}
	key := iterKey{
		shape:   iterShape(p.Model),
		tp:      p.TP,
		dpMulti: p.DP > 1,
		bucket:  bucket,
	}
	return programMemo.Do(key, func() (*CompiledIteration, error) {
		return compileIteration(p, timer, opts)
	})
}

// compileIteration builds and compiles the plan's iteration schedule.
func compileIteration(p Plan, timer *Timer, opts ScheduleOptions) (*CompiledIteration, error) {
	ops, pricing, err := buildIteration(p, timer, opts)
	if err != nil {
		return nil, err
	}
	prog, err := sim.Compile(ops)
	if err != nil {
		return nil, err
	}
	// c lives as long as the memo keeps it, so it keeps nothing of the
	// build: opClass is copied without the slack its appends left, and
	// the pool's New captures the op count, not ops, which would keep
	// the whole []sim.Op alive.
	pricing.opClass = slices.Clone(pricing.opClass)
	n := len(ops)
	c := &CompiledIteration{prog: prog, pricing: pricing, tp: p.TP}
	c.scratch.New = func() any {
		return &iterScratch{durs: make([]units.Seconds, n), st: prog.NewState()}
	}
	return c, nil
}
