package sim

// Exports for the external sim_test package, whose tests build real
// schedules with packages that themselves import sim.
var (
	ReferenceRun        = referenceRun
	RequireSameTrace    = requireSameTrace
	DifferentialConfigs = differentialConfigs
)
