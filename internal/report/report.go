// Package report renders experiment results as aligned text tables and
// simple ASCII bar charts, the output format of cmd/experiments.
package report

import (
	"fmt"
	"strings"

	"nmppak/internal/telemetry"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells (formatted with %v).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(pad(c, widths[i]))
		}
		sb.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return sb.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Bar renders a labeled horizontal ASCII bar chart scaled to maxWidth
// columns.
func Bar(title string, labels []string, values []float64, maxWidth int) string {
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title + "\n")
	}
	lw, max := 0, 0.0
	for i, l := range labels {
		if len(l) > lw {
			lw = len(l)
		}
		if values[i] > max {
			max = values[i]
		}
	}
	if max == 0 {
		max = 1
	}
	for i, l := range labels {
		n := int(values[i] / max * float64(maxWidth))
		sb.WriteString(fmt.Sprintf("%s  %s %.3g\n", pad(l, lw), strings.Repeat("#", n), values[i]))
	}
	return sb.String()
}

// Percent formats a fraction as a percentage.
func Percent(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// Ratio formats a speedup-style ratio (base over value, e.g. "1.34x");
// a zero denominator renders as "-".
func Ratio(base, value float64) string {
	if value == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", base/value)
}

// Utilization renders a telemetry aggregate as tables: the run-level
// comm/compute summary, the per-node busy/idle/stall breakdown, and the
// per-link occupancy with peak backlog (hot links sort themselves out by
// the util column).
func Utilization(u *telemetry.Utilization) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("utilization: %d cycles total, comm %s (%d cycles), runtime compute %d cycles\n\n",
		u.Total, Percent(u.CommFraction), u.CommCycles, u.ComputeCycles))

	if len(u.Nodes) > 0 {
		nt := &Table{Title: "per-node breakdown", Headers: []string{"node", "iters", "busy", "idle", "stall", "busy%", "dram_busy"}}
		for _, n := range u.Nodes {
			span := n.Busy + n.Idle + n.Stall
			frac := 0.0
			if span > 0 {
				frac = float64(n.Busy) / float64(span)
			}
			nt.AddRow(n.Node, n.Iters, n.Busy, n.Idle, n.Stall, Percent(frac), n.DRAMBusy)
		}
		sb.WriteString(nt.String())
		sb.WriteString("\n")
	}
	if len(u.Links) > 0 {
		lt := &Table{Title: "per-link occupancy", Headers: []string{"link", "msgs", "bytes", "busy", "util", "peak_backlog"}}
		for _, l := range u.Links {
			lt.AddRow(l.Name, l.Messages, l.Bytes, l.Busy, Percent(l.Utilization), l.PeakBacklog)
		}
		sb.WriteString(lt.String())
		sb.WriteString("\n")
	}
	if len(u.DRAM) > 0 {
		dt := &Table{Title: "dram channel buses", Headers: []string{"channel", "busy", "bytes"}}
		for _, d := range u.DRAM {
			dt.AddRow(d.Track, d.Busy, d.Bytes)
		}
		sb.WriteString(dt.String())
		sb.WriteString("\n")
	}
	if len(u.Counters) > 0 {
		ct := &Table{Title: "counters", Headers: []string{"name", "value"}}
		for _, c := range u.Counters {
			ct.AddRow(c.Name, c.Value)
		}
		sb.WriteString(ct.String())
	}
	return sb.String()
}

// CriticalPath renders a critical-path attribution: one row per
// iteration on the path, naming the node whose compute lay on it and the
// wait that preceded it.
func CriticalPath(entries []telemetry.CPEntry) string {
	if len(entries) == 0 {
		return "critical path: no iteration spans recorded\n"
	}
	t := &Table{Title: "critical path (bounding resource per iteration)",
		Headers: []string{"iter", "node", "compute", "wait", "bound", "src"}}
	var compute, wait int64
	for _, e := range entries {
		src := "-"
		if e.Src >= 0 {
			src = fmt.Sprintf("node%d", e.Src)
		}
		t.AddRow(e.Iter, e.Node, e.Compute, e.Wait, e.Bound.String(), src)
		compute += e.Compute
		wait += e.Wait
	}
	s := t.String()
	return s + fmt.Sprintf("path: %d compute + %d wait cycles over %d iterations\n",
		compute, wait, len(entries))
}

// Scaling renders a scaling study as a table: one row per node count with
// total cycles, speedup and parallel efficiency relative to the first row,
// and the communication fraction. For a strong-scaling study pass the same
// workload at every node count; for weak scaling pass the proportionally
// grown workloads, where the speedup column (T1/TN) is the weak-scaling
// efficiency and the per-node efficiency column is not meaningful.
func Scaling(title string, nodes []int, cycles []float64, commFrac []float64) string {
	t := &Table{
		Title:   title,
		Headers: []string{"nodes", "cycles", "speedup", "efficiency", "comm"},
	}
	for i, n := range nodes {
		speedup := 0.0
		if cycles[i] > 0 {
			speedup = cycles[0] / cycles[i]
		}
		eff := speedup * float64(nodes[0]) / float64(n)
		t.AddRow(n, fmt.Sprintf("%.4g", cycles[i]), fmt.Sprintf("%.2fx", speedup),
			Percent(eff), Percent(commFrac[i]))
	}
	return t.String()
}
