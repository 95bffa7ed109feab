package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runRecord is one line of a file written with -out: a run's result with
// what it ran and where.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Host     host    `json:"host"`
	Result   *result `json:"result"`
}

// host stamps a record with the machine it was measured on: timings are
// comparable only between records with the same core count.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// specMetric is one end-to-end metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

const (
	improved   = "improved"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	regressed  = "regressed"
)

// classify judges one (metric, workload) pair from the parent's runs and
// the change's runs. The change regressed when its median is worse than
// the parent's by more than the bound. When the parent's own quartile
// spread is wider than the bound the pair is unresolved, unless every
// change run beats every parent run. A gain needs the medians to differ
// by more than the parent's spread and the change to win nine tenths of
// all (change, parent) run pairs.
func classify(parent, change []float64, better string, bound float64) string {
	if len(parent) < 2 || len(change) < 2 {
		return unresolved
	}
	pm, cm := median(parent), median(change)
	if pm == 0 {
		return unresolved
	}
	beats := func(c, p float64) bool { return c < p }
	worse := (cm - pm) / pm
	if better == "higher" {
		beats = func(c, p float64) bool { return c > p }
		worse = -worse
	}
	wins, all := 0, true
	for _, c := range change {
		for _, p := range parent {
			if beats(c, p) {
				wins++
			} else {
				all = false
			}
		}
	}
	q1, q3 := quartiles(parent)
	spread := (q3 - q1) / pm
	switch {
	case all:
		return improved
	case spread > bound:
		return unresolved
	case worse > bound:
		return regressed
	case -worse > spread && float64(wins) >= 0.9*float64(len(change)*len(parent)):
		return improved
	default:
		return unchanged
	}
}

// quartiles returns the first and third quartiles of v the way Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), so
// the spread here matches the spread the benchmark is accepted on.
func quartiles(v []float64) (q1, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	m := len(d) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// compareFiles prints one line per (workload, end-to-end metric) pair of
// the two record files and one fail_frac line per workload. It returns
// false when any pair regressed or a workload's failure share rose.
func compareFiles(sp *spec, parentPath, changePath string, w io.Writer) (bool, error) {
	parent, err := readRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range parent {
		if change[name] != nil {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("compare: %s and %s share no workload", parentPath, changePath)
	}
	sort.Strings(names)
	ok := true
	fmt.Fprintf(w, "%-18s %-18s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "parent", "change", "delta", "spread", "bound", "verdict")
	for _, name := range names {
		p, c := parent[name], change[name]
		for _, m := range sp.EndToEnd {
			pv, cv := values(p, m.Name), values(c, m.Name)
			v := classify(pv, cv, m.Better, m.Bound)
			ok = ok && v != regressed
			pm := median(pv)
			q1, q3 := 0.0, 0.0
			if len(pv) >= 2 {
				q1, q3 = quartiles(pv)
			}
			fmt.Fprintf(w, "%-18s %-18s %12.6g %12.6g %+7.2f%% %7.2f%% %6.1f%%  %s\n",
				name, m.Name, pm, median(cv), 100*(median(cv)-pm)/pm, 100*(q3-q1)/pm, 100*m.Bound, v)
		}
		pf, cf := failFrac(p), failFrac(c)
		v := unchanged
		if cf > pf {
			v, ok = regressed, false
		}
		fmt.Fprintf(w, "%-18s %-18s %12.6g %12.6g %8s %8s %7s  %s\n", name, "fail_frac", pf, cf, "", "", "0", v)
	}
	return ok, nil
}

func values(recs []*runRecord, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func failFrac(recs []*runRecord) float64 {
	failed, attempted := 0, 0
	for _, r := range recs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// readRecords reads a -out file and groups its untraced runs by workload.
func readRecords(path string) (map[string][]*runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	defer f.Close()
	out := map[string][]*runRecord{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		r := &runRecord{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("compare: %s:%d: %w", path, line, err)
		}
		if r.Result == nil {
			return nil, fmt.Errorf("compare: %s:%d: record has no result", path, line)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("compare: %s: %w", path, err)
	}
	return out, nil
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sp := &spec{}
	if err := json.Unmarshal(b, sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return sp, nil
}
