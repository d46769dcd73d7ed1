package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareMain prints, for every workload and end-to-end metric, each
// side's median and quartiles over its runs, the change of the median
// from A to B against the metric's bound, and a verdict: ok, regressed
// (B's median is worse than A's by more than the bound) or unresolved
// (a side's spread between quartiles is wider than the bound, so the
// runs cannot tell). It returns 1 if anything regressed or is
// unresolved.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	var files [2]resultFile
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark compare: %s: %v\n", path, err)
			return 2
		}
	}
	fmt.Fprintf(out, "A: %s  commit %s  %d runs\nB: %s  commit %s  %d runs\n\n",
		args[0], files[0].Env.Commit, len(files[0].Runs), args[1], files[1].Env.Commit, len(files[1].Runs))
	fmt.Fprintf(out, "%-14s %-20s %34s %34s %8s %6s  %s\n", "workload", "metric",
		"A median [q1, q3] spread", "B median [q1, q3] spread", "change", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := collect(files[0], w.name, d.Name), collect(files[1], w.name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(out, "%-14s %-20s missing on one side\n", w.name, d.Name)
				bad++
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			worse := (b2 - a2) / a2
			if d.Better == "higher" {
				worse = (a2 - b2) / a2
			}
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			verdict := "ok"
			switch {
			case spreadA > d.Bound || spreadB > d.Bound:
				verdict = "unresolved"
				bad++
			case worse > d.Bound:
				verdict = "regressed"
				bad++
			}
			fmt.Fprintf(out, "%-14s %-20s %10.4g [%8.4g, %8.4g] %4.1f%% %10.4g [%8.4g, %8.4g] %4.1f%% %+7.1f%% %5.0f%%  %s\n",
				w.name, d.Name, a2, a1, a3, 100*spreadA, b2, b1, b3, 100*spreadB, 100*(b2-a2)/a2, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "\n%d metrics regressed, unresolved or missing\n", bad)
		return 1
	}
	fmt.Fprintln(out, "\nall metrics within their bounds")
	return 0
}

// collect gathers one workload's values of one end-to-end metric over
// a file's runs.
func collect(f resultFile, workload, metric string) []float64 {
	var vs []float64
	for _, run := range f.Runs {
		for _, res := range run.Workloads {
			if v, ok := res.EndToEnd[metric]; ok && res.Workload == workload {
				vs = append(vs, v)
			}
		}
	}
	return vs
}
