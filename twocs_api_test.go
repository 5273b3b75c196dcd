// Tests for the public facade: every re-exported entry point must be
// usable exactly as the README shows. The last test guards the line
// between production code and test-only code under internal/.
package twocs_test

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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

// testOnlySymbols lists, per package directory, the declarations that
// production code does not run. Each is either a test oracle that lives
// in a _test.go file of its package, or an extension that was deleted
// because nothing but its own tests reached it. Methods and struct
// fields are written Type.Name.
var testOnlySymbols = map[string][]string{
	"internal/collective": {
		// Functional ring collectives: oracles for the cost model.
		"RingAllReduce", "RingAllGather", "RingReduceScatter", "AllToAll",
		"Broadcast", "Stats", "chunkBounds", "validateUniform",
		// Deleted multi-node extension.
		"HierarchicalAllReduce", "HierarchicalModel", "NewHierarchicalModel",
		"HierarchicalModel.AllReduce", "HierarchicalModel.FlatAllReduce",
		// Figures of merit derived from the cost model: oracles for its
		// bandwidth ramp and per-algorithm wire traffic.
		"CostModel.BusBandwidth", "CostModel.WireBytesPerRank",
	},
	"internal/dist": {
		// Oracles for AnalyzePipeline and the folded all-reduce.
		"BuildPipelineSchedule", "SimulatePipeline",
		"LabelStageFwd", "LabelStageBwd", "LabelP2P",
		"BuildTPGroupForward", "SimulateTPGroupForward", "TPGroupOptions", "TPGroupReport",
		// Deleted 1F1B schedule.
		"Build1F1BSchedule", "MaxInFlight", "stageTimes",
		// The uncompiled schedule and the trace-read report: oracles
		// for CompileIteration and the run summary.
		"BuildIteration", "IterationReport.SerializedCommFraction", "reportFrom",
		// Deleted optimizer-step schedule, which no study built.
		"ScheduleOptions.IncludeOptimizer", "iterKey.includeOpt", "iterOpSpec",
		"CompiledIteration.shape",
	},
	"internal/kernels": {"Calculator.OptimizerStep"},
	"internal/model": {
		"EncDecLayerOps", "CrossAttentionForwardOps", "CrossAttentionBackwardOps",
		// Closed-form per-layer totals and config defaults: oracles
		// for the op graph.
		"Config.WithDefaults", "SerializedARBytesPerLayer", "GEMMFLOPsPerLayer",
	},
	"internal/hw": {
		"FutureDevice", "FutureNode", "GenerationScaling", "PaperGenerationScaling",
		// Catalog lookup and the datasheet ratios behind the 2x/4x
		// scenarios, checked only by tests.
		"LookupDevice", "HistoricalFlopVsBW",
	},
	"internal/stats": {"Linear", "FitLinear", "PowerLaw", "FitPowerLaw", "Interpolator", "NewInterpolator"},
	"internal/sim": {
		"CommBreakdown", "CommBreakdown.ExposedFraction",
		"Trace.DeviceCommBreakdown", "Trace.Devices",
		// Trace analytics: oracles for the run summary.
		"Trace.LabelTime", "Trace.BusyTime", "Trace.ExposedCommOn",
		"Trace.ExposedDPComm", "Trace.streamIntervals", "mergeIntervals",
		// Deleted runners: RunReuse over caller-owned scratch is the one
		// way to run a compiled program (tests wrap it in a helper).
		"Run", "Program.Run", "Program.RunWith", "Program.Durations", "Program.Ops",
		"Program.pool", "Program.newState", "Faults.Enabled",
		// Deleted lazy span index; CriticalPath builds its own map.
		"Trace.index", "Trace.byID", "Trace.mu",
	},
	// Equations 4-6 in closed form: oracles for the op graph and EdgeComplexity.
	"internal/core": {"ComputeOps", "CommBytes", "AmdahlEdge"},
	"internal/tensor": {
		"RefGEMM", "RefLayerNorm", "OpCounter", "DType.Bits", "MatMul.ArithmeticIntensity",
		"MatMul.ABytes", "MatMul.BBytes", "MatMul.CBytes", "MatMul.IOBytes",
		"Shape", "Shape.Valid", "Shape.Elems", "Shape.Bytes", "Shape.String",
	},
	// Report helpers only tests read, and the insertion order only they
	// read.
	"internal/profile": {"Ledger.TopItems", "Profile.LayerTime", "Ledger.Items", "LineItem", "Ledger.order"},
}

// TestTestOnlySymbolsStayOutOfProduction fails if a symbol in
// testOnlySymbols is declared again in a non-test file under internal/.
func TestTestOnlySymbolsStayOutOfProduction(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		banned := testOnlySymbols[filepath.ToSlash(filepath.Dir(path))]
		if len(banned) == 0 {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, name := range declaredNames(f) {
			for _, b := range banned {
				if name == b {
					t.Errorf("%s declares %s, which no production code runs (see testOnlySymbols)", path, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// declaredNames returns a file's top-level names, with methods and the
// named fields of struct types written Type.Name.
func declaredNames(f *ast.File) []string {
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
			names = append(names, name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, f := range st.Fields.List {
							for _, id := range f.Names {
								names = append(names, s.Name.Name+"."+id.Name)
							}
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						names = append(names, id.Name)
					}
				}
			}
		}
	}
	return names
}
