package experiments

import (
	"fmt"
	"strings"
	"time"

	"setdiscovery/internal/baseball"
	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/discovery"
	"setdiscovery/internal/relation"
	"setdiscovery/internal/strategy"
)

// baseballEnv builds the People table and one Instance per target query.
// Targets that select fewer than two rows at a scaled-down table size are
// skipped with a note.
func baseballEnv(cfg Config) (*relation.Table, []*baseball.Instance, []string, error) {
	rows := cfg.BaseballRows
	if rows == 0 {
		rows = baseball.DefaultRows
	}
	table, err := baseball.GeneratePeopleN(cfg.Seed, rows)
	if err != nil {
		return nil, nil, nil, err
	}
	var insts []*baseball.Instance
	var notes []string
	if rows != baseball.DefaultRows {
		notes = append(notes, fmt.Sprintf("People table scaled to %d rows (paper: %d)",
			rows, baseball.DefaultRows))
	}
	for i, target := range baseball.TargetQueries() {
		inst, err := baseball.NewInstance(table, target, cfg.Seed+uint64(i)*7)
		if err != nil {
			notes = append(notes, fmt.Sprintf("%s skipped: %v", target.Name, err))
			continue
		}
		insts = append(insts, inst)
		cfg.logf("baseball %s: %d target rows, %d candidates (%d after dedup)",
			target.Name, len(inst.TargetRows), len(inst.Candidates), inst.Collection.Len())
	}
	return table, insts, notes, nil
}

// Table2 regenerates Table 2: the seven target queries and their output
// sizes on the (synthetic) People table.
func Table2(cfg Config) (*Result, error) {
	rows := cfg.BaseballRows
	if rows == 0 {
		rows = baseball.DefaultRows
	}
	table, err := baseball.GeneratePeopleN(cfg.Seed, rows)
	if err != nil {
		return nil, err
	}
	// Paper outputs for reference at full scale.
	paper := map[string]int{"T1": 892, "T2": 201, "T3": 2179, "T4": 939, "T5": 65, "T6": 49, "T7": 26}
	res := &Result{Table: Table{
		Title:   "Table 2: target queries for the baseball database",
		Columns: []string{"target", "query", "output tuples", "paper (Lahman)"},
	}}
	res.Notes = append(res.Notes, "People table regenerated synthetically, since the Lahman dump is not redistributable: output sizes track the paper's ranges, not its exact counts")
	for _, q := range baseball.TargetQueries() {
		res.Table.AddRow(q.Name, q.String(), len(q.Eval(table)), paper[q.Name])
	}
	return res, nil
}

// Table3 regenerates Table 3: selected example tuples, number of generated
// candidate queries, and average candidate output size per target.
func Table3(cfg Config) (*Result, error) {
	table, insts, notes, err := baseballEnv(cfg)
	if err != nil {
		return nil, err
	}
	ids := table.Column("playerID")
	res := &Result{Notes: notes, Table: Table{
		Title:   "Table 3: example tuples and generated candidate queries",
		Columns: []string{"target", "example tuples", "candidates", "after dedup", "avg output tuples"},
	}}
	for _, inst := range insts {
		ex := make([]string, len(inst.Examples))
		for i, row := range inst.Examples {
			ex[i] = ids.Str(int(row))
		}
		res.Table.AddRow(inst.Target.Name, strings.Join(ex, ", "),
			len(inst.Candidates), inst.Collection.Len(), inst.AvgOutputSize)
	}
	return res, nil
}

// fig8Strategies are the strategy constructors of Figure 8 in the paper's
// order and parameterisation. Each call mints a fresh instance through
// Factory.New, exactly as engines, batches and tree builds do, so Figure
// 8(b) times the selection path they run.
func fig8Strategies() (names []string, make []func() strategy.Strategy) {
	names = []string{"InfoGain", "k-LP(k=2)", "k-LPLE(k=3,q=10)", "k-LPLVE(k=3,q=10)"}
	make = []func() strategy.Strategy{
		func() strategy.Strategy { return strategy.InfoGain{}.New() },
		func() strategy.Strategy { return strategy.NewKLP(cost.AD, 2).New() },
		func() strategy.Strategy { return strategy.NewKLPLE(cost.AD, 3, 10).New() },
		func() strategy.Strategy { return strategy.NewKLPLVE(cost.AD, 3, 10).New() },
	}
	return names, make
}

// runFig8 performs the query-discovery runs shared by Figures 8(a) and 8(b).
func runFig8(cfg Config) ([]*baseball.Instance, [][]int, [][]time.Duration, []string, error) {
	_, insts, notes, err := baseballEnv(cfg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	_, mks := fig8Strategies()
	questions := make([][]int, len(insts))
	times := make([][]time.Duration, len(insts))
	for i, inst := range insts {
		questions[i] = make([]int, len(mks))
		times[i] = make([]time.Duration, len(mks))
		for j, mk := range mks {
			res, err := discovery.Run(inst.Collection,
				[]dataset.Entity{inst.Examples[0], inst.Examples[1]},
				discovery.TargetOracle{Target: inst.TargetSet},
				discovery.Options{Strategy: mk()})
			if err != nil {
				return nil, nil, nil, nil, fmt.Errorf("%s: %v", inst.Target.Name, err)
			}
			if res.Target != inst.TargetSet {
				return nil, nil, nil, nil, fmt.Errorf("%s: discovery missed the target", inst.Target.Name)
			}
			questions[i][j] = res.Questions
			times[i][j] = res.SelectionTime
		}
		cfg.logf("fig8 %s: questions %v", inst.Target.Name, questions[i])
	}
	return insts, questions, times, notes, nil
}

// Fig8a regenerates Figure 8(a): number of questions to find each target
// query, per strategy.
func Fig8a(cfg Config) (*Result, error) {
	insts, questions, _, notes, err := runFig8(cfg)
	if err != nil {
		return nil, err
	}
	names, _ := fig8Strategies()
	res := &Result{Notes: notes, Table: Table{
		Title:   "Figure 8(a): number of questions per target query",
		Columns: append([]string{"target"}, names...),
	}}
	for i, inst := range insts {
		res.Table.AddRow(inst.Target.Name, questions[i][0], questions[i][1],
			questions[i][2], questions[i][3])
	}
	return res, nil
}

// Fig8b regenerates Figure 8(b): query discovery time (question selection
// time, excluding simulated user latency) per target and strategy.
func Fig8b(cfg Config) (*Result, error) {
	insts, _, times, notes, err := runFig8(cfg)
	if err != nil {
		return nil, err
	}
	names, _ := fig8Strategies()
	res := &Result{Notes: notes, Table: Table{
		Title:   "Figure 8(b): query discovery time per target query",
		Columns: append([]string{"target"}, names...),
	}}
	for i, inst := range insts {
		res.Table.AddRow(inst.Target.Name, times[i][0], times[i][1], times[i][2], times[i][3])
	}
	return res, nil
}

// Table4 regenerates Table 4: the fraction of candidate entities pruned by
// k-LP (k=2) at the nodes visited while discovering each target query.
func Table4(cfg Config) (*Result, error) {
	_, insts, notes, err := baseballEnv(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Notes: notes, Table: Table{
		Title:   "Table 4: entities pruned per node during discovery, k-LP k=2",
		Columns: []string{"target", "nodes", "avg pruned", "min pruned"},
	}}
	res.Notes = append(res.Notes,
		"pruned fraction = candidates whose 2-step bound was never fully computed")
	for _, inst := range insts {
		rec := &strategy.Recorder{}
		sel := strategy.NewKLP(cost.AD, 2).Instrument(rec)
		r, err := discovery.Run(inst.Collection,
			[]dataset.Entity{inst.Examples[0], inst.Examples[1]},
			discovery.TargetOracle{Target: inst.TargetSet},
			discovery.Options{Strategy: sel})
		if err != nil {
			return nil, err
		}
		if r.Target != inst.TargetSet {
			return nil, fmt.Errorf("table4 %s: discovery missed the target", inst.Target.Name)
		}
		res.Table.AddRow(inst.Target.Name, len(rec.Nodes),
			fmt.Sprintf("%.1f%%", 100*rec.AvgPrunedFraction()),
			fmt.Sprintf("%.1f%%", 100*rec.MinPrunedFraction()))
		cfg.logf("table4 %s: avg %.1f%% min %.1f%%", inst.Target.Name,
			100*rec.AvgPrunedFraction(), 100*rec.MinPrunedFraction())
	}
	return res, nil
}
