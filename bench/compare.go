package main

// -compare BASE HEAD: the regression gate. BASE holds the parent commit's
// untraced records and HEAD the change's, made as alternating pairs with the
// same seeds (run i of each side is pair i). For every workload and
// end-to-end metric it reports one verdict:
//
//	worse       the change's median is worse than the parent's by more than
//	            the metric's bound;
//	unresolved  the parent's runs spread wider than the bound, so the bound
//	            cannot be resolved, unless every change run beats every parent run;
//	better      the change wins at least 9 of 10 pairs (ties count for
//	            neither side) and the medians differ by more than the
//	            parent's interquartile range;
//	same        otherwise.
//
// fail_rate gets its own row and is worse on any rise. The exit code is 1
// when any row is worse.

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// minPairs is the fewest parent/change pairs a comparison accepts.
const minPairs = 10

const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareMetric applies the rules above to one metric's paired runs.
func compareMetric(d metricDef, base, head []float64) (verdict string, wins int) {
	better := func(a, b float64) bool {
		if d.better == "higher" {
			return a > b
		}
		return a < b
	}
	n := min(len(base), len(head))
	for i := 0; i < n; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	bm, hm := median(base), median(head)
	q1, q3 := quartiles(base)
	worsening := (hm - bm) / math.Abs(bm)
	allBetter := slices.Max(head) < slices.Min(base)
	if d.better == "higher" {
		worsening = -worsening
		allBetter = slices.Min(head) > slices.Max(base)
	}
	switch {
	case worsening > d.bound:
		return verdictWorse, wins
	case (q3-q1)/math.Abs(bm) > d.bound && !allBetter:
		return verdictUnresolved, wins
	case wins*10 >= 9*n && math.Abs(hm-bm) > q3-q1:
		return verdictBetter, wins
	}
	return verdictSame, wins
}

func compareFiles(basePath, headPath string, stdout, stderr io.Writer) int {
	sides := [2]map[string][]record{}
	var order []string
	for i, path := range []string{basePath, headPath} {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		sides[i] = map[string][]record{}
		for _, r := range recs {
			if r.Trace {
				continue
			}
			if i == 0 && len(sides[0][r.Workload]) == 0 {
				order = append(order, r.Workload)
			}
			sides[i][r.Workload] = append(sides[i][r.Workload], r)
		}
	}
	fmt.Fprintf(stdout, "%-14s %-18s %12s %25s %12s %25s %6s  %s\n",
		"workload", "metric", "base", "[q1 q3]", "head", "[q1 q3]", "wins", "verdict")
	code := 0
	for _, w := range order {
		base, head := sides[0][w], sides[1][w]
		n := min(len(base), len(head))
		if n < minPairs {
			fmt.Fprintf(stderr, "bench: %s has %d pairs; a comparison needs at least %d\n", w, n, minPairs)
			return 2
		}
		base, head = base[:n], head[:n]
		rates := [2]float64{}
		for i, rs := range [][]record{base, head} {
			attempted, failed := 0, 0
			for _, r := range rs {
				attempted += r.Attempted
				failed += r.Failed
			}
			rates[i] = float64(failed) / float64(max(attempted, 1))
		}
		verdict := verdictSame
		if rates[1] > rates[0] {
			verdict, code = verdictWorse, 1
		}
		fmt.Fprintf(stdout, "%-14s %-18s %12.4g %25s %12.4g %25s %6s  %s\n", w, "fail_rate", rates[0], "", rates[1], "", "", verdict)
		for _, d := range endToEnd {
			bv, hv := values(base, d.name), values(head, d.name)
			verdict, wins := compareMetric(d, bv, hv)
			if verdict == verdictWorse {
				code = 1
			}
			bq1, bq3 := quartiles(bv)
			hq1, hq3 := quartiles(hv)
			fmt.Fprintf(stdout, "%-14s %-18s %12.6g %25s %12.6g %25s %6s  %s\n", w, d.name,
				median(bv), fmt.Sprintf("[%.6g %.6g]", bq1, bq3),
				median(hv), fmt.Sprintf("[%.6g %.6g]", hq1, hq3),
				fmt.Sprintf("%d/%d", wins, n), verdict)
		}
	}
	return code
}
