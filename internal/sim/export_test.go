package sim

// Exports for the external sim_test package, whose tests build real
// schedules with packages that themselves import sim.
var (
	ReferenceRun        = referenceRun
	RequireSameTrace    = requireSameTrace
	DifferentialConfigs = differentialConfigs
)

// Ops rebuilds the ops p was compiled from, in compile order and with
// zero durations, through the helper RunReuse rebuilds its spans' ops
// with; dist's TestCompiledRunMatchesBuildZoo pins those to the built
// ops.
func Ops(p *Program) []Op {
	ops := make([]Op, p.NumOps())
	for i := range ops {
		ops[i] = p.op(i, 0)
	}
	return ops
}
