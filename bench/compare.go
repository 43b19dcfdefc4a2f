package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare reads two files of run records (written with -out) and
// prints, for every workload and end-to-end metric, each side's median
// and quartiles over its runs, the change from A to B in the direction
// that is worse, the bound, and a verdict:
//
//	ok          B's median is not worse than A's by more than the bound
//	regressed   it is
//	unresolved  either side's own spread (Q3-Q1 over median) is wider
//	            than the bound, so the comparison decides nothing

func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue // end-to-end numbers always come from untraced runs
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// verdict judges B against A for one metric.
func verdict(m e2eSpec, a, b []float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	worse = (mb - ma) / ma
	if m.Better == higher {
		worse = -worse
	}
	for _, side := range [][]float64{a, b} {
		q1, q3 := quartiles(side)
		if med := median(side); med != 0 && (q3-q1)/med > m.Bound {
			return worse, "unresolved"
		}
	}
	if worse > m.Bound {
		return worse, "regressed"
	}
	return worse, "ok"
}

func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-15s %-16s %4s %12s %12s %12s   %4s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "nA", "A.q1", "A.median", "A.q3", "nB", "B.q1", "B.median", "B.q3", "worse", "bound", "verdict")
	allOK := true
	for _, wl := range workloads {
		for _, m := range endToEnd {
			xa, xb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a1, a3 := quartiles(xa)
			b1, b3 := quartiles(xb)
			worse, v := verdict(m, xa, xb)
			if v != "ok" {
				allOK = false
			}
			fmt.Fprintf(w, "%-15s %-16s %4d %12.4f %12.4f %12.4f   %4d %12.4f %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, len(xa), a1, median(xa), a3, len(xb), b1, median(xb), b3, 100*worse, 100*m.Bound, v)
		}
	}
	return allOK, nil
}
