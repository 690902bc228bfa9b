package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json compare reads: each metric's
// direction, and each end-to-end metric's bound.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// metricRule is how compare judges one metric.
type metricRule struct {
	higherBetter bool
	bound        float64 // 0: no bound, reported only
}

// runCompare reads two result sets (JSON-lines files written with --out, or
// directories of them) and the bounds in BENCHMARK.json. It prints, for each
// workload and metric, both sides' median and quartiles and a verdict
// against the metric's bound, and exits 1 if any metric regressed.
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <base results> <new results>")
		return 2
	}
	rules, err := loadRules("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 1
	}
	var sets [2][]record
	for i := range sets {
		if sets[i], err = loadRecords(args[i]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
			return 1
		}
		fmt.Printf("set %c: %s\n", 'A'+i, describeSet(sets[i]))
	}
	rows := compareSets(sets[0], sets[1], rules)
	fmt.Printf("%-14s %-38s %-32s %-32s %8s %6s  %s\n", "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "change", "bound", "verdict")
	regressed := false
	for _, r := range rows {
		bound := "-"
		if r.rule.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*r.rule.bound)
		}
		fmt.Printf("%-14s %-38s %-32s %-32s %+7.1f%% %6s  %s\n", r.workload, r.metric,
			fmtQuartiles(r.a), fmtQuartiles(r.b), 100*r.change, bound, r.verdict)
		regressed = regressed || r.verdict == verdictWorse
	}
	if regressed {
		return 1
	}
	return 0
}

func loadRules(path string) (map[string]metricRule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rules := make(map[string]metricRule)
	for _, m := range def.EndToEnd {
		rules[m.Name] = metricRule{higherBetter: m.Better == "higher", bound: m.Bound}
	}
	for _, m := range def.PerLayer {
		rules[m.Name] = metricRule{higherBetter: m.Better == "higher"}
	}
	return rules, nil
}

// loadRecords reads a JSON-lines file of records, or every *.jsonl file in
// a directory.
func loadRecords(path string) ([]record, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.jsonl")); err != nil {
			return nil, err
		}
	}
	var recs []record
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
		for line := 1; sc.Scan(); line++ {
			if strings.TrimSpace(sc.Text()) == "" {
				continue
			}
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				fh.Close()
				return nil, fmt.Errorf("%s:%d: %w", f, line, err)
			}
			recs = append(recs, r)
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return nil, err
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return recs, nil
}

// describeSet summarises a result set's provenance.
func describeSet(recs []record) string {
	revs := make(map[string]bool)
	seeds := make(map[int64]bool)
	p := recs[0].Provenance
	for _, r := range recs {
		revs[r.Provenance.GitRev+"/"+r.Provenance.SrcSHA256] = true
		seeds[r.Provenance.Seed] = true
	}
	names := make([]string, 0, len(revs))
	for k := range revs {
		names = append(names, k)
	}
	sort.Strings(names)
	return fmt.Sprintf("%d runs, %d seeds, rev/src %s, nproc=%d GOMAXPROCS=%d %s, %s",
		len(recs), len(seeds), strings.Join(names, ","), p.Nproc, p.GOMAXPROCS, p.GoVersion, p.CPUModel)
}

// Verdicts, after the rule that a move counts only beyond the metric's
// bound, and only where both sides' spread is within it.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictNoBound    = "-"
)

type compRow struct {
	workload, metric string
	a, b             []float64
	rule             metricRule
	change           float64 // (median B - median A) / median A
	verdict          string
}

func compareSets(a, b []record, rules map[string]metricRule) []compRow {
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	for i, set := range [2][]record{a, b} {
		for _, r := range set {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, name}
				values[i][k] = append(values[i][k], m.Value)
			}
		}
	}
	var rows []compRow
	for k, av := range values[0] {
		bv, ok := values[1][k]
		if !ok {
			continue
		}
		row := compRow{workload: k.workload, metric: k.metric, a: av, b: bv, rule: rules[k.metric]}
		row.change, row.verdict = judge(av, bv, row.rule)
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].workload != rows[j].workload {
			return rows[i].workload < rows[j].workload
		}
		return rows[i].metric < rows[j].metric
	})
	return rows
}

// judge compares set b against base set a under rule.
func judge(a, b []float64, rule metricRule) (change float64, verdict string) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma != 0 {
		change = (mb - ma) / ma
	}
	if rule.bound == 0 {
		return change, verdictNoBound
	}
	worse := change
	if rule.higherBetter {
		worse = -change
	}
	switch {
	case worse < 0 && separated(a, b, rule.higherBetter):
		return change, verdictBetter
	case spread(a) > rule.bound || spread(b) > rule.bound:
		return change, verdictUnresolved
	case worse > rule.bound:
		return change, verdictWorse
	case worse < -rule.bound:
		return change, verdictBetter
	}
	return change, verdictSame
}

// separated reports whether every value of b is better than every value of a.
func separated(a, b []float64, higherBetter bool) bool {
	if higherBetter {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

func fmtQuartiles(vs []float64) string {
	q1, q2, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", q2, q1, q3)
}
