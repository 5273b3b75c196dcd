package main

import (
	_ "embed"
	"encoding/json"
	"runtime"
)

// golden.json holds the digests every run must reproduce, per GOARCH
// (float results may differ between architectures that fuse
// multiply-adds). They pin outputs across runs and across commits:
// the sweep artifact's bytes, the search digests, the simulated
// makespans and the audit's projection error.
//
//go:embed golden.json
var goldenJSON []byte

// checkGolden compares got with the golden value recorded for key on
// this architecture; a key with no recorded value is not checked.
func checkGolden(rep *report, key, got string) {
	var all map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		rep.check(false, "golden.json: %v", err)
		return
	}
	want, ok := all[runtime.GOARCH][key]
	if !ok {
		return
	}
	rep.check(got == want, "%s = %s, golden %s", key, got, want)
}
