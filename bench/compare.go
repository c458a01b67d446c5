package main

import (
	"fmt"
	"io"
	"math"
)

// verdict rules (choosing-metrics guide, section 8): pair the i-th parent
// run with the i-th change run. A change is better when it wins at least
// nine tenths of the pairs and its median beats the parent's by more than
// the parent's quartile spread; worse when its median is worse than the
// parent's by more than the metric's bound; unresolved when the parent's
// own spread exceeds the bound and not every change run beats every parent
// run; otherwise the same.
const minWinShare = 0.9

type comparison struct {
	parentMed, parentQ1, parentQ3 float64
	changeMed, changeQ1, changeQ3 float64
	winShare                      float64
	verdict                       string
}

func compareMetric(m metricSpec, parent, change []float64) comparison {
	c := comparison{parentMed: median(parent), changeMed: median(change)}
	c.parentQ1, c.parentQ3 = quartiles(parent)
	c.changeQ1, c.changeQ3 = quartiles(change)
	// good > 0 when the change's value is better than the parent's.
	good := func(parent, change float64) float64 {
		if m.Better == "higher" {
			return change - parent
		}
		return parent - change
	}
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if good(parent[i], change[i]) > 0 {
			wins++
		}
	}
	if pairs > 0 {
		c.winShare = float64(wins) / float64(pairs)
	}
	allBetter := true
	for _, p := range parent {
		for _, x := range change {
			allBetter = allBetter && good(p, x) > 0
		}
	}
	delta := good(c.parentMed, c.changeMed)
	spread := c.parentQ3 - c.parentQ1
	switch {
	case c.winShare >= minWinShare && delta > spread:
		c.verdict = "better"
	case -delta > m.Bound*math.Abs(c.parentMed):
		c.verdict = "worse"
	case spread > m.Bound*math.Abs(c.parentMed) && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "same"
	}
	return c
}

// compareRuns reads the parent and change result files and prints, per
// workload and end-to-end metric, both sides' median and quartiles, the
// change's win share over paired runs, and the verdict under the metric's
// bound. Traced runs are skipped: their per-layer metrics have no bounds.
func compareRuns(w io.Writer, spec *benchSpec, parentGlob, changeGlob string) error {
	parent, err := readResults(parentGlob)
	if err != nil {
		return err
	}
	change, err := readResults(changeGlob)
	if err != nil {
		return err
	}
	values := func(rs []*result, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if r.Workload == workload && !r.Trace {
				if v, ok := r.Metrics[metric]; ok {
					out = append(out, v)
				}
			}
		}
		return out
	}
	fmt.Fprintf(w, "%-13s %-16s %-34s %-34s %6s %s\n", "workload", "metric",
		"parent median [q1 q3]", "change median [q1 q3]", "wins", "verdict")
	worse := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			p, c := values(parent, wl.Name, m.Name), values(change, wl.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			cmp := compareMetric(m, p, c)
			if cmp.verdict == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-13s %-16s %-34s %-34s %5.0f%% %s (bound %.0f%%, n=%d/%d)\n",
				wl.Name, m.Name,
				fmt.Sprintf("%.5g [%.5g %.5g]", cmp.parentMed, cmp.parentQ1, cmp.parentQ3),
				fmt.Sprintf("%.5g [%.5g %.5g]", cmp.changeMed, cmp.changeQ1, cmp.changeQ3),
				100*cmp.winShare, cmp.verdict, 100*m.Bound, len(p), len(c))
		}
	}
	fmt.Fprintf(w, "%d workload x metric pairs worse than their bound\n", worse)
	return nil
}
