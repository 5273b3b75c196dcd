// Package race reports whether the running binary was built with the
// race detector. The race runtime allocates differently (its sync.Pool,
// for one, drops entries at random), so exact allocation counts hold
// only in a normal build.
package race

import "runtime/debug"

// Enabled reports whether the binary was built with -race.
func Enabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
