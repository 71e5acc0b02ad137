package experiments

import (
	"fmt"
	"time"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/stats"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/synth"
	"setdiscovery/internal/tree"
)

// Table1a regenerates Table 1(a): number of distinct entities as the
// overlap ratio α varies (n = 10k/Scale, d = 50–60).
func Table1a(cfg Config) (*Result, error) {
	return table1(cfg, "Table 1(a): synthetic data varying overlap ratio α",
		synth.Table1a(cfg.Scale), func(p synth.Params) string {
			return fmt.Sprintf("%.2f", p.Alpha)
		}, "alpha")
}

// Table1b regenerates Table 1(b): distinct entities as the number of sets
// n varies (α = 0.9, d = 50–60).
func Table1b(cfg Config) (*Result, error) {
	return table1(cfg, "Table 1(b): synthetic data varying number of sets n",
		synth.Table1b(cfg.Scale), func(p synth.Params) string {
			return fmt.Sprint(p.N)
		}, "n")
}

// Table1c regenerates Table 1(c): distinct entities as the set-size range
// d varies (n = 10k/Scale, α = 0.9).
func Table1c(cfg Config) (*Result, error) {
	return table1(cfg, "Table 1(c): synthetic data varying set size range d",
		synth.Table1c(cfg.Scale), func(p synth.Params) string {
			return fmt.Sprintf("%d-%d", p.SizeMin, p.SizeMax)
		}, "d")
}

func table1(cfg Config, title string, sweep []synth.Params, key func(synth.Params) string, keyName string) (*Result, error) {
	res := &Result{Table: Table{
		Title:   title,
		Columns: []string{keyName, "sets", "distinct entities", "total elements", "mean size"},
	}}
	if cfg.Scale != 1 {
		res.Notes = append(res.Notes,
			fmt.Sprintf("workload scaled down by %d× from the paper's sizes", cfg.Scale))
	}
	for _, p := range sweep {
		c, err := synth.Generate(p)
		if err != nil {
			return nil, err
		}
		st := c.Stats()
		res.Table.AddRow(key(p), st.Sets, st.DistinctEntities, st.TotalElements, st.MeanSize)
		cfg.logf("table1 %s=%s: %d distinct entities", keyName, key(p), st.DistinctEntities)
	}
	return res, nil
}

// synthStrategies are the strategies the synthetic sweeps compare, with the
// paper's parameter choices (§5.3.1: k-LP k=2; k-LPLE/k-LPLVE k=3, q=10).
func synthStrategies() []func() strategy.Factory {
	return []func() strategy.Factory{
		func() strategy.Factory { return strategy.NewKLP(cost.AD, 2) },
		func() strategy.Factory { return strategy.NewKLPLE(cost.AD, 3, 10) },
		func() strategy.Factory { return strategy.NewKLPLVE(cost.AD, 3, 10) },
	}
}

// sweepRow builds the per-setting measurements shared by Figs 5–7: average
// number of questions (tree AD) and tree construction time per strategy.
func sweepRow(c *dataset.Collection) (avgQ [3]float64, took [3]time.Duration, err error) {
	for i, mk := range synthStrategies() {
		sel := mk()
		var tr *tree.Tree
		// Sequential build: the figures report the paper's single-threaded
		// Algorithm 3 construction time, not the worker-pool wall clock.
		took[i] = timeIt(func() { tr, err = tree.Build(c.All(), sel, tree.WithParallelism(1)) })
		if err != nil {
			return avgQ, took, err
		}
		avgQ[i] = tr.AvgDepth()
	}
	return avgQ, took, nil
}

func sweepFigure(cfg Config, title, keyName string, sweep []synth.Params, key func(synth.Params) string) (*Result, error) {
	res := &Result{Table: Table{
		Title: title,
		Columns: []string{keyName, "sets", "entities",
			"k-LP(2) avgQ", "k-LP(2) time",
			"k-LPLE(3,10) avgQ", "k-LPLE time",
			"k-LPLVE(3,10) avgQ", "k-LPLVE time"},
	}}
	if cfg.Scale != 1 {
		res.Notes = append(res.Notes,
			fmt.Sprintf("workload scaled down by %d× from the paper's sizes", cfg.Scale))
	}
	for _, p := range sweep {
		c, err := synth.Generate(p)
		if err != nil {
			return nil, err
		}
		avgQ, took, err := sweepRow(c)
		if err != nil {
			return nil, err
		}
		res.Table.AddRow(key(p), c.Len(), c.DistinctEntities(),
			avgQ[0], took[0], avgQ[1], took[1], avgQ[2], took[2])
		cfg.logf("%s %s=%s: avgQ=%.2f time=%v", title[:4], keyName, key(p), avgQ[0], took[0])
	}
	return res, nil
}

// Fig5 regenerates Figure 5: average number of questions and tree
// construction time as the overlap ratio α varies.
func Fig5(cfg Config) (*Result, error) {
	return sweepFigure(cfg,
		"Figure 5: effect of set overlap (α sweep) on avg questions and construction time",
		"alpha", synth.Table1a(cfg.Scale), func(p synth.Params) string {
			return fmt.Sprintf("%.2f", p.Alpha)
		})
}

// Fig6 regenerates Figure 6: effect of the number of distinct entities
// (set-size sweep) on avg questions and construction time.
func Fig6(cfg Config) (*Result, error) {
	return sweepFigure(cfg,
		"Figure 6: effect of number of distinct entities (d sweep) on avg questions and construction time",
		"d", synth.Table1c(cfg.Scale), func(p synth.Params) string {
			return fmt.Sprintf("%d-%d", p.SizeMin, p.SizeMax)
		})
}

// Fig7 regenerates Figure 7: effect of the number of sets on avg questions
// and construction time.
func Fig7(cfg Config) (*Result, error) {
	return sweepFigure(cfg,
		"Figure 7: effect of number of sets (n sweep) on avg questions and construction time",
		"n", synth.Table1b(cfg.Scale), func(p synth.Params) string {
			return fmt.Sprint(p.N)
		})
}

// Fig4b regenerates Figure 4(b): speedup of k-LP over unpruned gain-k on
// synthetic data as the number of sets grows. Both run root entity
// selection on the same collection: the unpruned baseline evaluates every
// entity at every lookahead step, so it cannot build full trees at paper
// scale.
func Fig4b(cfg Config) (*Result, error) {
	res := &Result{Table: Table{
		Title:   "Figure 4(b): k-LP vs gain-k root-selection speedup on synthetic data (k=2)",
		Columns: []string{"n", "entities", "gain-2 time", "k-LP(2) time", "speedup", "gain evals", "k-LP evaluated"},
	}}
	res.Notes = append(res.Notes,
		"speedup measured on root entity selection; the unpruned gain-k is infeasible for full tree construction at larger sizes (the paper's point)")
	ns := []int{250, 500, 1000, 2000}
	switch {
	case cfg.Scale >= 50: // quick runs
		ns = []int{125, 250, 500, 1000}
	case cfg.Scale <= 2: // near paper scale
		ns = append(ns, 4000, 8000)
	}
	var speedups []float64
	for i, n := range ns {
		p := synth.Params{N: n, SizeMin: 50, SizeMax: 60, Alpha: 0.9, Seed: cfg.Seed + uint64(i)}
		c, err := synth.Generate(p)
		if err != nil {
			return nil, err
		}
		sub := c.All()
		gk := strategy.NewGainK(2)
		var gainTime, klpTime time.Duration
		gainTime = timeIt(func() { gk.Select(sub) })
		rec := &strategy.Recorder{}
		klp := strategy.NewKLP(cost.AD, 2).Instrument(rec)
		klpTime = timeIt(func() { klp.Select(sub) })
		speedup := float64(gainTime) / float64(klpTime)
		speedups = append(speedups, speedup)
		evaluated := 0
		if len(rec.Nodes) > 0 {
			evaluated = rec.Nodes[0].Evaluated
		}
		res.Table.AddRow(n, c.DistinctEntities(), gainTime, klpTime,
			fmt.Sprintf("%.0fx", speedup), gk.Evaluations, evaluated)
		cfg.logf("fig4b n=%d: speedup %.0fx", n, speedup)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("geometric-mean speedup: %.0fx", stats.GeoMean(speedups)))
	return res, nil
}
