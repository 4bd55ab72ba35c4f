package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the driver's spread check uses.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// iqrSpread is (q3 − q1) / median.
func iqrSpread(values []float64) float64 {
	m := median(values)
	if len(values) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(m)
}

// summarize folds repeated sets into one report whose metrics are the
// medians over the sets. A workload is noisy when any end-to-end
// metric's inter-quartile spread exceeds its bound, and invalid when
// any set was. It prints one row per (workload, metric).
func summarize(sets []*report) *report {
	sum := &report{Env: sets[0].Env}
	fold := func(pick func(*report) map[string]*result, declared []metricSpec, bounded bool) map[string]*result {
		if pick(sets[0]) == nil {
			return nil
		}
		out := map[string]*result{}
		for _, w := range workloads {
			first, ok := pick(sets[0])[w.Name]
			if !ok {
				continue
			}
			res := newResult(w.Name)
			res.SliceQPS = first.SliceQPS
			for _, set := range sets {
				r := pick(set)[w.Name]
				res.count(r.Attempted, r.Failed)
				res.Samples += r.Samples
				if !r.Valid {
					res.Valid = false
					res.Reasons = append(res.Reasons, r.Reasons...)
				}
			}
			for _, m := range declared {
				var vals []float64
				for _, set := range sets {
					if r, ok := pick(set)[w.Name].Metrics[m.Name]; ok {
						vals = append(vals, r.Value)
					}
				}
				if len(vals) == 0 {
					continue
				}
				s := sortedCopy(vals)
				spread := iqrSpread(vals)
				res.Metrics[m.Name] = reading{Value: median(vals), Unit: m.Unit}
				flag := ""
				if bounded {
					flag = "ok"
					if spread > m.Bound {
						res.Noisy = true
						flag = "NOISY"
					} else if spread > m.Bound/3 {
						flag = "above a third of the bound"
					}
				}
				fmt.Fprintf(os.Stderr, "%-16s %-30s min %12.4f  median %12.4f  max %12.4f  iqr/median %6.2f%%  bound %5.1f%%  %s\n",
					w.Name, m.Name, s[0], median(vals), s[len(s)-1], spread*100, m.Bound*100, flag)
			}
			out[w.Name] = res
		}
		return out
	}
	sum.EndToEnd = fold(func(r *report) map[string]*result { return r.EndToEnd }, endToEnd, true)
	sum.PerLayer = fold(func(r *report) map[string]*result { return r.PerLayer }, perLayer, false)
	return sum
}

// verdict classifies new against old for one end-to-end metric by its
// declared direction and bound.
func verdict(m metricSpec, old, new float64, noisy bool) string {
	if old == 0 {
		return "unresolved"
	}
	worse := (new - old) / math.Abs(old) // positive = worse
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case noisy:
		return "unresolved"
	case worse > m.Bound:
		return "worse"
	case worse < -m.Bound:
		return "better"
	}
	return "same"
}

// compareReports prints one row per (workload, end-to-end metric) and
// returns the exit code: 1 when anything got worse by more than its
// bound or a side is invalid, else 0.
func compareReports(oldPath, newPath string) int {
	load := func(path string) *report {
		b, err := os.ReadFile(path)
		if err != nil {
			fatalf("%v", err)
		}
		rep := &report{}
		if err := json.Unmarshal(b, rep); err != nil {
			fatalf("%s: %v", path, err)
		}
		return rep
	}
	old, new := load(oldPath), load(newPath)
	code := 0
	for _, w := range workloads {
		o, n := old.EndToEnd[w.Name], new.EndToEnd[w.Name]
		if o == nil || n == nil {
			continue
		}
		if !o.Valid || !n.Valid {
			fmt.Printf("%-16s invalid run (old valid=%v, new valid=%v)\n", w.Name, o.Valid, n.Valid)
			code = 1
		}
		for _, m := range endToEnd {
			ov, nv := o.Metrics[m.Name].Value, n.Metrics[m.Name].Value
			v := verdict(m, ov, nv, o.Noisy || n.Noisy)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-16s %-16s %12.4f -> %12.4f %-6s %+7.2f%%  bound %4.1f%%  %s\n",
				w.Name, m.Name, ov, nv, m.Unit, (nv-ov)/math.Abs(ov)*100, m.Bound*100, v)
		}
	}
	return code
}
