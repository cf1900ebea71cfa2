package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// side is one side of a comparison: per workload and end-to-end metric,
// the value each run reported, and the sample its spread is judged by. A
// side given as a directory holds one report per run and the sample is the
// runs' values; a side given as a single report has one value, and the
// sample is that run's raw per-slice values, so a comparison of two single
// runs still has a spread.
type side map[string]map[string]*sample

type sample struct {
	runs   []float64 // what each run reported
	spread []float64 // the runs' values, or a single run's slices
}

func (s *sample) value() float64 { return median(s.runs) }

func loadSide(path string) (side, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("%s: no *.json reports", path)
		}
	}
	s := side{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, res := range rep.Passes {
			if res.Traced {
				continue
			}
			if s[res.Workload] == nil {
				s[res.Workload] = map[string]*sample{}
			}
			for name, v := range res.Metrics {
				sm := s[res.Workload][name]
				if sm == nil {
					sm = &sample{}
					s[res.Workload][name] = sm
				}
				sm.runs = append(sm.runs, v)
				if len(files) == 1 && len(res.Slices[name]) > 1 {
					sm.spread = res.Slices[name]
				} else {
					sm.spread = sm.runs
				}
			}
		}
	}
	return s, nil
}

// compareReports judges side b against side a on every end-to-end metric
// of every workload both sides ran, and reports whether any regressed.
//
//	ok          b's median is no worse than a's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  the spread of either side (quartile distance over median)
//	            is wider than the bound, and it is not the case that every
//	            run of b reads better than every run of a
func compareReports(out io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := loadSide(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSide(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tdelta\tspread a\tspread b\tbound\tverdict\t")
	for _, sp := range specs {
		for _, d := range endToEnd {
			sa, sb := a[sp.name][d.name], b[sp.name][d.name]
			if sa == nil || sb == nil {
				continue
			}
			ma, mb := sa.value(), sb.value()
			worse := (mb - ma) / ma // as a share of a's median, positive when b is worse
			if d.better == "higher" {
				worse = -worse
			}
			wa, wb := iqrShare(sa.spread), iqrShare(sb.spread)
			verdict := "ok"
			switch {
			case (wa > d.bound || wb > d.bound) && !allBetter(sb.spread, sa.spread, d.better):
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\t\n",
				sp.name, d.name, d.unit, ma, mb, 100*(mb-ma)/ma, 100*wa, 100*wb, 100*d.bound, verdict)
		}
	}
	return regressed, tw.Flush()
}

// allBetter reports whether every value of b reads better than every
// value of a.
func allBetter(b, a []float64, better string) bool {
	for _, x := range b {
		for _, y := range a {
			if better == "higher" && x <= y || better == "lower" && x >= y {
				return false
			}
		}
	}
	return true
}
