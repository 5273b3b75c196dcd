package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"twocs/internal/core"
)

// TestMetricsMatchBenchmarkJSON pins the metric and workload lists the
// binary reports to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if got := sortedKeys(workloads); !reflect.DeepEqual(got, sortedStrings(names)) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", got, names)
	}
	compare := func(kind string, defs []metricDef, declared []struct{ Name, Unit string }) {
		if len(defs) != len(declared) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", kind, len(defs), len(declared))
			return
		}
		for i, d := range defs {
			if d.name != declared[i].Name || d.unit != declared[i].Unit {
				t.Errorf("%s[%d] = %s (%s), BENCHMARK.json says %s (%s)", kind, i, d.name, d.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, bench.EndToEnd)
	compare("per_layer", perLayer, bench.PerLayer)
}

func sortedStrings(s []string) []string {
	m := map[string]bool{}
	for _, v := range s {
		m[v] = true
	}
	return sortedKeys(m)
}

// loadDigest hashes a plan's request sequence: each request's body and
// expected point count, in order.
func loadDigest(l *loadPlan) string {
	h := sha256.New()
	for _, i := range l.requests {
		s := l.specs[i]
		h.Write(s.body)
		h.Write([]byte{byte(s.points), byte(s.points >> 8), '\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLoadPlanDeterministic pins the request sequence a seed generates:
// the same seed gives the same sequence, another seed another one, and
// seed 1's sequence does not drift between versions of the generator.
func TestLoadPlanDeterministic(t *testing.T) {
	a, b := newLoadPlan(1, 2000), newLoadPlan(1, 2000)
	if loadDigest(a) != loadDigest(b) {
		t.Fatal("seed 1 generated two different request sequences")
	}
	if loadDigest(a) == loadDigest(newLoadPlan(2, 2000)) {
		t.Fatal("seeds 1 and 2 generated the same request sequence")
	}
	const seed1 = "3e92f4949787b9c7de3b390f38154528d4f9336a0caf2b2940d3aefa88f2643a"
	if got := loadDigest(newLoadPlan(1, 200)); got != seed1 {
		t.Errorf("seed 1 sequence digest = %s, pinned %s", got, seed1)
	}
	if a.due(3) != 3*a.interval || a.interval.Seconds()*studyRate != 1 {
		t.Errorf("requests are not due at the fixed rate: interval %v", a.interval)
	}
}

// TestLoadPlanShape checks the mix the study workload promises: 80% of
// requests from eight answerable hot specs, novel specs never
// repeated, every axis value a multiple of 64 inside the Table-3
// ranges, and an expected point count that agrees with the library's
// own divisibility rule.
func TestLoadPlanShape(t *testing.T) {
	l := newLoadPlan(7, 5000)
	count := map[int]int{}
	for _, i := range l.requests {
		count[i]++
	}
	hot := 0
	for i, n := range count {
		if n > 1 {
			hot += n
			if !l.specs[i].expectOK() {
				t.Errorf("repeated spec %s has no runnable point", l.specs[i].body)
			}
		}
	}
	if len(count)-len(l.specs) != 0 {
		t.Errorf("%d specs generated but %d requested", len(l.specs), len(count))
	}
	if hot*5 != len(l.requests)*4 {
		t.Errorf("%d of %d requests hot, want 80%%", hot, len(l.requests))
	}
	hs, sls := core.Table3Hs(), core.Table3SLs()
	rejects := 0
	for _, s := range l.specs {
		want := 0
		for _, h := range s.Hs {
			if h < hs[0] || h > hs[len(hs)-1] || h%64 != 0 {
				t.Fatalf("spec %s: H %d outside Table 3 or not a multiple of 64", s.body, h)
			}
			for _, sl := range s.SLs {
				if sl < sls[0] || sl > sls[len(sls)-1] || sl%64 != 0 {
					t.Fatalf("spec %s: SL %d outside Table 3 or not a multiple of 64", s.body, sl)
				}
				cfg, err := core.FutureConfig(h, sl, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, tp := range core.Table3TPs() {
					if cfg.TPDivides(tp) {
						want += len(s.FlopBW)
					}
				}
			}
		}
		if s.points != want {
			t.Errorf("spec %s: expects %d points, the library enumerates %d", s.body, s.points, want)
		}
		if !s.expectOK() {
			rejects++
		}
	}
	if rejects == 0 {
		t.Error("no spec without a runnable point: the reject path is not exercised")
	}
}

// TestScoreStudyCatchesCorruptOutput feeds the scorer results with a
// corrupted body, a wrong answer to an unanswerable spec, and a 500,
// and checks each is caught.
func TestScoreStudyCatchesCorruptOutput(t *testing.T) {
	plan := newLoadPlan(3, 400)
	results := make([]studyResult, len(plan.requests))
	first := make([]firstBody, len(plan.specs))
	for i, si := range plan.requests {
		spec := plan.specs[si]
		if !spec.expectOK() {
			results[i] = studyResult{status: 400}
			continue
		}
		body := fakeStudyBody(t, spec)
		results[i] = studyResult{status: 200, cache: "miss", sum: sha256.Sum256(body)}
		if first[si].body == nil {
			first[si] = firstBody{sum: results[i].sum, body: body}
		}
	}
	clean := newReport()
	scoreStudy(clean, plan, results, first)
	if len(clean.failedChecks) != 0 || clean.failed != 0 {
		t.Fatalf("clean results failed: %v (failed %d)", clean.failedChecks, clean.failed)
	}

	okIdx, rejectIdx := -1, -1
	for i, si := range plan.requests {
		if plan.specs[si].expectOK() && okIdx < 0 {
			okIdx = i
		}
		if !plan.specs[si].expectOK() && rejectIdx < 0 {
			rejectIdx = i
		}
	}
	cases := []struct {
		name       string
		corrupt    func(rs []studyResult)
		wantCheck  string
		wantFailed int64
	}{
		{"corrupted body", func(rs []studyResult) { rs[okIdx].sum[0] ^= 1 }, "body differs", 0},
		{"200 for an unanswerable spec", func(rs []studyResult) { rs[rejectIdx].status = 200 }, "no runnable point", 1},
		{"500 for an unanswerable spec", func(rs []studyResult) { rs[rejectIdx].status = 500 }, "", 1},
		{"500 for an answerable spec", func(rs []studyResult) { rs[okIdx].status = 500 }, "", 1},
	}
	for _, c := range cases {
		rs := append([]studyResult(nil), results...)
		c.corrupt(rs)
		rep := newReport()
		sc := scoreStudy(rep, plan, rs, first)
		if c.wantCheck != "" && !strings.Contains(strings.Join(rep.failedChecks, "\n"), c.wantCheck) {
			t.Errorf("%s: checks %v, want one mentioning %q", c.name, rep.failedChecks, c.wantCheck)
		}
		if rep.failed != c.wantFailed {
			t.Errorf("%s: failed = %d, want %d", c.name, rep.failed, c.wantFailed)
		}
		if c.name == "500 for an answerable spec" && !math.IsInf(quantile(sc.okLat, 1), 1) {
			t.Errorf("%s: the failure does not count as missing the latency limit", c.name)
		}
	}

	// A first body whose point count disagrees with the spec is caught.
	for si := range first {
		if first[si].body != nil {
			first[si].body = []byte(`{"points":1,"scenarios":[{"points":[{}]}]}`)
			break
		}
	}
	rep := newReport()
	scoreStudy(rep, plan, results, first)
	if !strings.Contains(strings.Join(rep.failedChecks, "\n"), "points, want") {
		t.Errorf("wrong point count not caught: %v", rep.failedChecks)
	}
}

// fakeStudyBody renders a study response with the spec's point count.
func fakeStudyBody(t *testing.T, s *studySpec) []byte {
	t.Helper()
	type point struct{}
	body, err := json.Marshal(map[string]any{
		"points":    s.points,
		"scenarios": []map[string]any{{"points": make([]point, s.points)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestCheckSweepPassCatchesCorruptOutput checks that an HTTP body that
// differs from the file, a truncated trailer, and an artifact that
// differs from the first pass's each fail the pass.
func TestCheckSweepPassCatchesCorruptOutput(t *testing.T) {
	const rows = 10
	good := sweepPass{
		fileSum: "aa", httpSame: true, httpRows: rows + 1,
		trailer: `{"trailer":true,"rows":10,"total":10,"complete":true}`,
	}
	rep := newReport()
	checkSweepPass(rep, 0, good, good, rows)
	if len(rep.failedChecks) != 0 || rep.failed != 0 || rep.attempted != 2 {
		t.Fatalf("good pass: checks %v, failed %d, attempted %d", rep.failedChecks, rep.failed, rep.attempted)
	}
	bad := map[string]func(p *sweepPass){
		"HTTP body differs": func(p *sweepPass) { p.httpSame = false },
		"incomplete":        func(p *sweepPass) { p.trailer = `{"trailer":true,"rows":9,"total":10,"complete":false}` },
		"missing row":       func(p *sweepPass) { p.httpRows = rows },
		"differs from pass": func(p *sweepPass) { p.fileSum = "bb" },
	}
	for name, corrupt := range bad {
		p := good
		corrupt(&p)
		rep := newReport()
		checkSweepPass(rep, 1, p, good, rows)
		if len(rep.failedChecks) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
}

// TestCheckGolden checks that a digest differing from golden.json fails
// the run and that an unrecorded key is not checked.
func TestCheckGolden(t *testing.T) {
	rep := newReport()
	checkGolden(rep, "no-such-key", "x")
	if len(rep.failedChecks) != 0 {
		t.Fatalf("unrecorded key checked: %v", rep.failedChecks)
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		t.Fatal(err)
	}
	for arch, keys := range all {
		for key, want := range keys {
			saved := goldenJSON
			goldenJSON = []byte(`{"` + arch + `":{"` + key + `":"` + want + `"}}`)
			rep := newReport()
			checkGolden(rep, key, want+"0")
			goldenJSON = saved
			if arch == runtime.GOARCH && len(rep.failedChecks) == 0 {
				t.Errorf("%s: a corrupted digest passed", key)
			}
		}
	}
}

// TestTail checks the trailer extraction the artifact checks rely on.
func TestTail(t *testing.T) {
	var tl tail
	for i := 0; i < 100; i++ {
		_, _ = tl.Write([]byte(`{"i":` + strings.Repeat("9", 40) + "}\n"))
	}
	_, _ = tl.Write([]byte("{\"trailer\":true}\n"))
	if got := tl.lastLine(); got != `{"trailer":true}` {
		t.Errorf("lastLine = %q", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 { //lint:ignore floatcmp exact arithmetic on small integers
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(append(xs, math.Inf(1)), 1); !math.IsInf(got, 1) {
		t.Errorf("max with a failure = %v, want +Inf", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// TestPostSweepComparesBytes serves the file artifact back over HTTP,
// intact and corrupted, and checks that the client's byte comparison
// tells them apart.
func TestPostSweepComparesBytes(t *testing.T) {
	artifact := []byte(strings.Repeat(`{"i":1,"evo":"1x"}`+"\n", 5000) + `{"trailer":true}` + "\n")
	path := filepath.Join(t.TempDir(), "a.ndjson")
	if err := os.WriteFile(path, artifact, 0o644); err != nil {
		t.Fatal(err)
	}
	flip := func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)/2] ^= 1; return c }
	cases := map[string]struct {
		body []byte
		same bool
	}{
		"intact":    {artifact, true},
		"flipped":   {flip(artifact), false},
		"truncated": {artifact[:len(artifact)-10], false},
		"extended":  {append(append([]byte(nil), artifact...), '\n'), false},
	}
	for name, c := range cases {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write(c.body)
		}))
		d := &daemon{url: ts.URL, client: ts.Client()}
		var p sweepPass
		err := postSweep(context.Background(), d, []byte("{}"), path, &p, nil, 0, 0)
		ts.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.httpSame != c.same {
			t.Errorf("%s: httpSame = %v, want %v", name, p.httpSame, c.same)
		}
	}
}

// TestTracerSelfTime checks that a written span's self time excludes
// the time its children cover, and that a nil tracer records nothing.
func TestTracerSelfTime(t *testing.T) {
	var none *tracer
	if id := none.span(0, 1, "x", time.Now(), time.Second); id != 0 {
		t.Fatalf("nil tracer allocated span id %d", id)
	}
	tr := newTracer(time.Now())
	parent := tr.span(0, 1, "parent", time.Now(), 100)
	tr.span(parent, 1, "child", time.Now(), 30)
	tr.record(tr.id(), parent, 1, "rows", time.Now(), 50, 1000)
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct{ Spans []spanRec }
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	self := map[string]int64{}
	for _, s := range got.Spans {
		self[s.Name] = s.Self
	}
	if self["parent"] != 20 || self["child"] != 30 || self["rows"] != 50 {
		t.Errorf("self times %v, want parent 20, child 30, rows 50", self)
	}
}
