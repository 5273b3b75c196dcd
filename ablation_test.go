// Ablation benchmarks for the design choices DESIGN.md calls out: the
// collective algorithm on the serialized path, wire-protocol selection,
// GEMM wave quantization, and the DP gradient bucket size.
package twocs_test

import (
	"fmt"
	"os"
	"testing"

	"twocs/internal/collective"
	"twocs/internal/dist"
	"twocs/internal/hw"
	"twocs/internal/kernels"
	"twocs/internal/model"
	"twocs/internal/opmodel"
	"twocs/internal/profile"
	"twocs/internal/report"
	"twocs/internal/tensor"
	"twocs/internal/units"
)

// BenchmarkAblationCollectiveAlgo compares ring, tree and in-network
// all-reduce on the serialized path across message sizes — the §5
// discussion of PIN's 2x wire-traffic advantage.
func BenchmarkAblationCollectiveAlgo(b *testing.B) {
	path, err := collective.PathForGroup(hw.MI210Cluster(16, 1.0/8), 4)
	if err != nil {
		b.Fatal(err)
	}
	models := map[string]*collective.CostModel{}
	for _, algo := range []collective.Algorithm{collective.Ring, collective.Tree, collective.InNetwork} {
		m, err := collective.NewCostModel(path, algo)
		if err != nil {
			b.Fatal(err)
		}
		models[algo.String()] = m
	}
	sizes := []units.Bytes{
		units.Bytes(64 * units.KiB), units.Bytes(4 * units.MiB),
		units.Bytes(256 * units.MiB), units.Bytes(1 * units.Giga),
	}
	printOnce(b, "abl-algo", func() {
		t := report.NewTable("Ablation: all-reduce algorithm (16 ranks)",
			"size", "ring", "tree", "in-network")
		for _, sz := range sizes {
			row := []string{units.Bytes(float64(sz)).String()}
			for _, name := range []string{"ring", "tree", "in-network"} {
				d, err := models[name].AllReduce(16, sz)
				if err != nil {
					b.Fatal(err)
				}
				row = append(row, d.String())
			}
			t.AddRow(row...)
		}
		t.Render(os.Stdout)
		fmt.Println("  trees win at tiny sizes (latency), rings at scale (bandwidth);")
		fmt.Println("  in-network reduction halves wire traffic (paper §5 Technique 2).")
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range models {
			if _, err := m.AllReduce(16, units.Bytes(256*units.MiB)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationProtocolSelection disables the LL/LL128/Simple wire
// protocols to show they are what makes small messages bandwidth-poor —
// the effect behind Figure 11's higher overlap at small H.
func BenchmarkAblationProtocolSelection(b *testing.B) {
	base, err := collective.PathForGroup(hw.MI210Cluster(1, 0), 4)
	if err != nil {
		b.Fatal(err)
	}
	ideal := base
	ideal.Protocols = nil // one ideal protocol: no overhead, full bandwidth
	withM, err := collective.NewCostModel(base, collective.Ring)
	if err != nil {
		b.Fatal(err)
	}
	withoutM, err := collective.NewCostModel(ideal, collective.Ring)
	if err != nil {
		b.Fatal(err)
	}
	printOnce(b, "abl-proto", func() {
		t := report.NewTable("Ablation: wire-protocol selection (ring all-reduce, 4 ranks)",
			"size", "with protocols", "ideal wire", "slowdown")
		for _, sz := range []units.Bytes{
			units.Bytes(64 * units.KiB), units.Bytes(1 * units.MiB),
			units.Bytes(16 * units.MiB), units.Bytes(256 * units.MiB),
		} {
			tw, err := withM.AllReduce(4, sz)
			if err != nil {
				b.Fatal(err)
			}
			to, err := withoutM.AllReduce(4, sz)
			if err != nil {
				b.Fatal(err)
			}
			t.AddRow(units.Bytes(float64(sz)).String(), tw.String(), to.String(),
				fmt.Sprintf("%.2fx", float64(tw)/float64(to)))
		}
		t.Render(os.Stdout)
		fmt.Println("  small messages run far below peak bandwidth — without this the")
		fmt.Println("  Figure 11 small-H inflation and Figure 15c error would vanish.")
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := withM.AllReduce(4, units.Bytes(1*units.MiB)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWaveQuantization shows the GEMM-model non-ideality
// that drives part of the Figure 15a projection error.
func BenchmarkAblationWaveQuantization(b *testing.B) {
	on, err := kernels.NewCalculator(hw.MI210)
	if err != nil {
		b.Fatal(err)
	}
	off, err := kernels.NewCalculator(hw.MI210, kernels.WithoutWaveQuantization())
	if err != nil {
		b.Fatal(err)
	}
	// A grid one tile past a wave boundary vs one exactly on it.
	aligned := tensor.MatMul{M: 128 * 104, N: 128, K: 4096, DT: tensor.FP32}
	ragged := tensor.MatMul{M: 128 * 105, N: 128, K: 4096, DT: tensor.FP32}
	printOnce(b, "abl-wave", func() {
		t := report.NewTable("Ablation: GEMM wave quantization (104 CUs)",
			"grid", "quantized", "ideal", "penalty")
		for _, g := range []struct {
			name string
			m    tensor.MatMul
		}{{"104 tiles (aligned)", aligned}, {"105 tiles (ragged)", ragged}} {
			tq, err := on.GEMMTime(g.m)
			if err != nil {
				b.Fatal(err)
			}
			ti, err := off.GEMMTime(g.m)
			if err != nil {
				b.Fatal(err)
			}
			t.AddRow(g.name, tq.String(), ti.String(),
				fmt.Sprintf("%.2fx", float64(tq)/float64(ti)))
		}
		t.Render(os.Stdout)
		fmt.Println("  the ragged grid pays for a nearly empty second wave — runtime is")
		fmt.Println("  not a smooth function of size, which is why naive linear/quadratic")
		fmt.Println("  projections carry the Figure 15 error.")
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := on.GEMMTime(ragged); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBucketSize sweeps the DP gradient bucket size: small
// buckets start reducing earlier, large buckets amortize latency but
// delay and expose the tail (Fig 3a's overlap mechanics).
func BenchmarkAblationBucketSize(b *testing.B) {
	cfg := model.Config{
		Name: "bucket", Kind: model.Decoder, Layers: 16, Hidden: 2048,
		FCDim: 8192, Heads: 32, Vocab: 1000, SeqLen: 1024, Batch: 4,
		DT: tensor.FP32,
	}
	plan := dist.Plan{
		Model: cfg, TP: 4, DP: 4,
		Cluster: hw.MI210Cluster(4, 1.0/8),
		Algo:    collective.Ring,
	}
	calc, err := kernels.NewCalculator(hw.MI210)
	if err != nil {
		b.Fatal(err)
	}
	timer, err := dist.NewTimer(plan, calc)
	if err != nil {
		b.Fatal(err)
	}
	run := func(bucket int) dist.IterationReport {
		rep, err := dist.RunIteration(plan, timer, dist.ScheduleOptions{DPBucketLayers: bucket})
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	printOnce(b, "abl-bucket", func() {
		t := report.NewTable("Ablation: DP gradient bucket size (layers per all-reduce)",
			"bucket", "makespan", "DP comm", "DP exposed")
		for _, bucket := range []int{1, 2, 4, 8, 16} {
			rep := run(bucket)
			t.AddRow(fmt.Sprint(bucket), rep.Makespan.String(),
				rep.DPCommTime.String(), rep.ExposedDPComm.String())
		}
		t.Render(os.Stdout)
		fmt.Println("  bucketing trades per-collective latency against tail exposure;")
		fmt.Println("  one giant bucket serializes the whole gradient volume at the end.")
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(4)
	}
}

// BenchmarkAblationFusedAttention compares the attention sub-layer under
// the classic three-kernel lowering vs a FlashAttention-style fused
// kernel, across sequence lengths — the kind of Transformer evolution the
// paper's §6.4 expects the methodology to absorb.
func BenchmarkAblationFusedAttention(b *testing.B) {
	calc, err := kernels.NewCalculator(hw.MI210)
	if err != nil {
		b.Fatal(err)
	}
	attnTime := func(cfg model.Config) units.Seconds {
		plan := dist.Plan{
			Model: cfg, TP: 4, DP: 1,
			Cluster: hw.MI210Cluster(1, 0), Algo: collective.Ring,
		}
		timer, err := dist.NewTimer(plan, calc)
		if err != nil {
			b.Fatal(err)
		}
		ops, err := model.LayerForwardOps(cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
		var total units.Seconds
		for _, op := range ops {
			if op.Sublayer != "attn" || op.Kind.IsComm() {
				continue
			}
			d, err := timer.Time(op)
			if err != nil {
				b.Fatal(err)
			}
			total += d
		}
		return total
	}
	mk := func(sl int, fused bool) model.Config {
		return model.Config{
			Name: "attn", Kind: model.Decoder, Layers: 1, Hidden: 4096,
			FCDim: 16384, Heads: 32, Vocab: 1000, SeqLen: sl, Batch: 1,
			DT: tensor.FP32, FusedAttention: fused,
		}
	}
	printOnce(b, "abl-fused", func() {
		t := report.NewTable("Ablation: fused (FlashAttention-style) vs unfused attention core (H=4K, fwd)",
			"SL", "unfused", "fused", "speedup")
		for _, sl := range []int{1024, 2048, 4096, 8192, 16384} {
			tu := attnTime(mk(sl, false))
			tf := attnTime(mk(sl, true))
			t.AddRow(fmt.Sprint(sl), tu.String(), tf.String(),
				fmt.Sprintf("%.2fx", float64(tu)/float64(tf)))
		}
		t.Render(os.Stdout)
		fmt.Println("  fusion removes the quadratic score-matrix traffic, so its advantage")
		fmt.Println("  grows with sequence length — evolving compute shrinks while the")
		fmt.Println("  serialized all-reduces stay, amplifying the paper's conclusion.")
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attnTime(mk(4096, true))
	}
}

// BenchmarkAblationBaselineSize tests the paper's own remedy for
// projection error (§4.3.8: "this error may improve by using a larger
// baseline model"): calibrate the operator model from baselines of
// different widths and validate against the same large targets.
func BenchmarkAblationBaselineSize(b *testing.B) {
	calc, err := kernels.NewCalculator(hw.MI210)
	if err != nil {
		b.Fatal(err)
	}
	calibrateAt := func(h int) (*opmodel.Model, *dist.Timer) {
		cfg := model.Config{
			Name: fmt.Sprintf("base-H%d", h), Kind: model.Encoder,
			Layers: 4, Hidden: h, FCDim: 4 * h, Heads: h / 64,
			Vocab: 10_000, SeqLen: 512, Batch: 16, DT: tensor.FP32,
		}
		plan := dist.Plan{Model: cfg, TP: 4, DP: 1,
			Cluster: hw.MI210Cluster(1, 0), Algo: collective.Ring}
		timer, err := dist.NewTimer(plan, calc)
		if err != nil {
			b.Fatal(err)
		}
		prof, err := profile.Iteration(cfg, 4, timer)
		if err != nil {
			b.Fatal(err)
		}
		m, err := opmodel.Calibrate(prof)
		if err != nil {
			b.Fatal(err)
		}
		return m, timer
	}
	errAt := func(m *opmodel.Model, timer *dist.Timer) float64 {
		v, err := opmodel.ValidateOpSweep(m, timer, "fwd.fc.fc1", "gemm-vs-h", 3, opmodel.SweepH)
		if err != nil {
			b.Fatal(err)
		}
		return v.GeoMeanErr
	}
	printOnce(b, "abl-baseline", func() {
		t := report.NewTable("Ablation: baseline model size vs projection error (GEMM-vs-H sweep)",
			"baseline H", "geomean err %")
		for _, h := range []int{512, 1024, 2048, 4096} {
			m, timer := calibrateAt(h)
			t.AddRow(fmt.Sprint(h), fmt.Sprintf("%.1f", errAt(m, timer)*100))
		}
		t.Render(os.Stdout)
		fmt.Println("  larger baselines start in the efficient regime, so scaling from")
		fmt.Println("  them extrapolates better — the paper's §4.3.8 suggestion, confirmed.")
	})
	m, timer := calibrateAt(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errAt(m, timer)
	}
}

// BenchmarkAblationLatencyAwareAR compares the paper's linear collective
// projection against the two-term latency-aware refinement as the group
// size extrapolates far beyond the calibration group (4 ranks).
func BenchmarkAblationLatencyAwareAR(b *testing.B) {
	calc, err := kernels.NewCalculator(hw.MI210)
	if err != nil {
		b.Fatal(err)
	}
	e, err := model.LookupZoo("BERT")
	if err != nil {
		b.Fatal(err)
	}
	plan := dist.Plan{Model: e.Config, TP: 4, DP: 1,
		Cluster: hw.MI210Cluster(1, 0), Algo: collective.Ring}
	timer, err := dist.NewTimer(plan, calc)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := profile.Iteration(e.Config, 4, timer)
	if err != nil {
		b.Fatal(err)
	}
	var refs []opmodel.ARReference
	for _, sz := range []units.Bytes{
		units.Bytes(1 * units.MiB), units.Bytes(8 * units.MiB),
		units.Bytes(64 * units.MiB), units.Bytes(256 * units.MiB),
	} {
		d, err := timer.Time(model.OpDesc{Kind: model.TPAllReduce, Bytes: sz})
		if err != nil {
			b.Fatal(err)
		}
		refs = append(refs, opmodel.ARReference{Bytes: sz, Group: 4, Time: d})
	}
	plain, err := opmodel.Calibrate(prof, opmodel.WithARSweep(refs))
	if err != nil {
		b.Fatal(err)
	}
	aware, err := opmodel.Calibrate(prof, opmodel.WithARSweep(refs), opmodel.WithLatencyAwareAR())
	if err != nil {
		b.Fatal(err)
	}
	truth, err := collective.NewCostModel(timer.TPModel.Path, collective.Ring)
	if err != nil {
		b.Fatal(err)
	}
	bytes := units.Bytes(1 * units.GiB)
	printOnce(b, "abl-latar", func() {
		t := report.NewTable("Ablation: linear vs latency-aware all-reduce projection (1 GiB, calibrated at 4 ranks)",
			"ranks", "ground truth", "linear err %", "latency-aware err %")
		for _, n := range []int{8, 16, 64, 256} {
			want, err := truth.AllReduce(n, bytes)
			if err != nil {
				b.Fatal(err)
			}
			pp, err := plain.ProjectAllReduce(bytes, n)
			if err != nil {
				b.Fatal(err)
			}
			pa, err := aware.ProjectAllReduce(bytes, n)
			if err != nil {
				b.Fatal(err)
			}
			t.AddRow(fmt.Sprint(n), want.String(),
				fmt.Sprintf("%.1f", 100*relErr(float64(pp), float64(want))),
				fmt.Sprintf("%.1f", 100*relErr(float64(pa), float64(want))))
		}
		t.Render(os.Stdout)
		fmt.Println("  the linear model scales latency by the bandwidth factor and falls")
		fmt.Println("  apart at large groups; charging latency per ring step fixes it.")
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aware.ProjectAllReduce(bytes, 256); err != nil {
			b.Fatal(err)
		}
	}
}
