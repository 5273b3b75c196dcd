// Tests for the public facade: every re-exported entry point must be
// usable exactly as the README shows.
package twocs_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"twocs"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	a := sharedFacadeAnalyzer(t)
	cfg, err := twocs.FutureConfig(16384, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := a.SerializedFraction(cfg, 64, twocs.FlopVsBW(4))
	if err != nil {
		t.Fatal(err)
	}
	if f := p.CommFraction(); f <= 0 || f >= 1 {
		t.Errorf("comm fraction = %v", f)
	}
}

var facadeAnalyzer *twocs.Analyzer

func sharedFacadeAnalyzer(t *testing.T) *twocs.Analyzer {
	t.Helper()
	if facadeAnalyzer == nil {
		a, err := twocs.NewAnalyzer()
		if err != nil {
			t.Fatal(err)
		}
		facadeAnalyzer = a
	}
	return facadeAnalyzer
}

func TestFacadeZooAndLookup(t *testing.T) {
	if len(twocs.Zoo()) != 8 {
		t.Errorf("zoo size = %d", len(twocs.Zoo()))
	}
	if _, err := twocs.LookupZoo("GPT-3"); err != nil {
		t.Error(err)
	}
	if _, err := twocs.LookupZoo("nope"); err == nil {
		t.Error("unknown model accepted")
	}
	if len(twocs.FutureModels()) != 4 {
		t.Error("future models missing")
	}
}

func TestFacadeEvolutions(t *testing.T) {
	if twocs.Today().FlopVsBW() != 1 {
		t.Error("Today should be 1x")
	}
	if twocs.FlopVsBW(4).FlopVsBW() != 4 {
		t.Error("FlopVsBW(4) should be 4x")
	}
}

func TestFacadeAlgorithmicHelpers(t *testing.T) {
	e, err := twocs.LookupZoo("BERT")
	if err != nil {
		t.Fatal(err)
	}
	if got := twocs.SlackAdvantage(e.Config); got != 512*16 {
		t.Errorf("slack = %v", got)
	}
	edge, err := twocs.EdgeComplexity(e.Config, 4)
	if err != nil {
		t.Fatal(err)
	}
	if edge != (1024+512)/4.0 {
		t.Errorf("edge = %v", edge)
	}
	rows, err := twocs.AlgorithmicScaling(twocs.Zoo())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestFacadeRequiredTP(t *testing.T) {
	ests, err := twocs.EstimateRequiredTP(twocs.Zoo())
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 8 {
		t.Errorf("estimates = %d", len(ests))
	}
}

func TestFacadeCustomCluster(t *testing.T) {
	e, err := twocs.LookupZoo("BERT")
	if err != nil {
		t.Fatal(err)
	}
	a, err := twocs.NewAnalyzerOn(twocs.MI210Cluster(2, 1.0/8), e.Config, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := twocs.FutureConfig(4096, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SerializedFraction(cfg, 16, twocs.Today()); err != nil {
		t.Error(err)
	}
}

func TestFacadeExtensions(t *testing.T) {
	a := sharedFacadeAnalyzer(t)
	cfg, err := twocs.FutureConfig(8192, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Layers = 24
	moe, err := a.ProjectMoE(cfg, 16, 8, twocs.Today())
	if err != nil {
		t.Fatal(err)
	}
	if moe.AllToAll <= 0 {
		t.Error("MoE all-to-all missing")
	}
	inf, err := a.ProjectInference(cfg, 16, twocs.Today())
	if err != nil {
		t.Fatal(err)
	}
	train, err := a.SerializedFraction(cfg, 16, twocs.Today())
	if err != nil {
		t.Fatal(err)
	}
	if inf.CommFraction() <= train.CommFraction() {
		t.Errorf("inference fraction %v should exceed training %v (no backward GEMMs to amortize)",
			inf.CommFraction(), train.CommFraction())
	}
}

func TestFacadeCaseStudyScenarios(t *testing.T) {
	if len(twocs.Fig14Scenarios()) != 3 {
		t.Error("want 3 Fig14 scenarios")
	}
}

func TestFacadeStreaming(t *testing.T) {
	a := sharedFacadeAnalyzer(t)
	var buf bytes.Buffer
	top, err := twocs.NewTopK(3)
	if err != nil {
		t.Fatal(err)
	}
	pareto := twocs.NewPareto()
	marg := twocs.NewMarginals()
	sink := twocs.MultiSink(twocs.NewNDJSON(&buf), top, pareto, marg)
	err = a.StreamEvolutionGridCtx(context.Background(),
		[]int{1024, 4096}, []int{1024, 2048}, []int{4, 16}, 1, []twocs.Evolution{twocs.FlopVsBW(4)}, sink)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 8+1 {
		t.Fatalf("streamed %d lines, want 8 rows + trailer", len(lines))
	}
	if !strings.Contains(lines[len(lines)-1], `"trailer":true`) ||
		!strings.Contains(lines[len(lines)-1], `"complete":true`) {
		t.Fatalf("bad trailer line: %s", lines[len(lines)-1])
	}
	if len(top.Best()) != 3 || pareto.Size() == 0 || len(marg.Axes()) == 0 {
		t.Fatal("reducers saw no rows")
	}
}
