package sim

// Exports for the external sim_test package, whose tests build real
// schedules with packages that themselves import sim.
var (
	ReferenceRun        = referenceRun
	RequireSameTrace    = requireSameTrace
	DifferentialConfigs = differentialConfigs
	RunProgram          = runProgram
)

// Ops returns p's compiled ops, shared with p: treat them as read-only.
func Ops(p *Program) []Op { return p.ops }
