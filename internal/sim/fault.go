package sim

import (
	"fmt"
	"math"
)

// Faults injects partial-hardware-failure conditions into the engine:
// a throttled (straggler) device whose streams all progress slower, and
// a global communication derating modeling a degraded fabric. Zero
// values disable each condition, so the zero Faults is "healthy" and
// existing callers are unaffected. The collective package models the
// same failures analytically (collective.Fault); this hook makes them
// observable in event-level traces, where lock-step schedules show how
// one slow device globalizes.
type Faults struct {
	// StragglerDevice is the device index to throttle; only consulted
	// when StragglerSlowdown is set.
	StragglerDevice int
	// StragglerSlowdown (>= 1) divides the progress rate of every
	// stream on StragglerDevice. 0 (or 1) disables the straggler.
	StragglerSlowdown float64
	// CommSlowdown (>= 1) divides the progress rate of every
	// communication stream on every device — a fabric-wide bandwidth
	// derating. 0 (or 1) disables it.
	CommSlowdown float64
}

// Validate rejects physically meaningless fault descriptions. The zero
// value is valid (healthy).
func (f Faults) Validate() error {
	bad := func(v float64) bool {
		return math.IsNaN(v) || math.IsInf(v, 0) || (v != 0 && v < 1)
	}
	if bad(f.StragglerSlowdown) {
		return fmt.Errorf("sim: straggler slowdown %v invalid (want 0 or >= 1)", f.StragglerSlowdown)
	}
	if bad(f.CommSlowdown) {
		return fmt.Errorf("sim: comm slowdown %v invalid (want 0 or >= 1)", f.CommSlowdown)
	}
	if math.IsInf(max(f.StragglerSlowdown, 1)*max(f.CommSlowdown, 1), 0) {
		// A comm op on the straggler would progress at rate 0.
		return fmt.Errorf("sim: straggler %v x comm %v slowdown overflows", f.StragglerSlowdown, f.CommSlowdown)
	}
	if f.StragglerSlowdown > 1 && f.StragglerDevice < 0 {
		return fmt.Errorf("sim: straggler device %d negative", f.StragglerDevice)
	}
	return nil
}

// factor is the rate divisor the faults impose on (device, stream);
// 1 means unaffected.
func (f Faults) factor(dev int, stream Stream) float64 {
	d := 1.0
	if f.StragglerSlowdown > 1 && dev == f.StragglerDevice {
		d *= f.StragglerSlowdown
	}
	if f.CommSlowdown > 1 && stream.IsComm() {
		d *= f.CommSlowdown
	}
	return d
}
