// Package power reproduces the paper's area and power analysis (Table 3,
// §6.5) from per-component post-synthesis constants at a commercial 28 nm
// node, and the GPU comparison of §6.6.
package power

import "fmt"

// Component is one PE building block with its silicon costs.
type Component struct {
	Name     string
	Quantity int
	AreaMM2  float64 // per instance
	PowerMW  float64 // per instance
}

// PEDesign describes one processing element. Constants follow Table 3: a
// PE comprises two 4 KB MacroNode buffers, two 1 KB TransferNode
// scratchpads, three ALUs (one per pipeline stage), and its slice of the
// crossbar switch.
func PEDesign() []Component {
	return []Component{
		{Name: "MacroNode Buffer (4 KB)", Quantity: 2, AreaMM2: 0.038 / 2, PowerMW: 9.2 / 2},
		{Name: "TransferNode Scratchpad (1 KB)", Quantity: 2, AreaMM2: 0.009 / 2, PowerMW: 2.3 / 2},
		{Name: "ALU", Quantity: 3, AreaMM2: 0.037 / 3, PowerMW: 18.5 / 3},
		{Name: "Crossbar Switch", Quantity: 1, AreaMM2: 0.025, PowerMW: 0.3},
	}
}

// Totals aggregates a component list.
func Totals(components []Component) (areaMM2, powerMW float64) {
	for _, c := range components {
		areaMM2 += c.AreaMM2 * float64(c.Quantity)
		powerMW += c.PowerMW * float64(c.Quantity)
	}
	return areaMM2, powerMW
}

// pesPerChip is the PE count §6.5 places in each DIMM's buffer chip: the
// 16-PE cost-effective point of Fig. 15.
const pesPerChip = 16

// System summarizes a buffer chip's PEs against the host DIMM budget.
type System struct {
	PEs           int
	PEAreaMM2     float64
	PEPowerMW     float64
	TotalAreaMM2  float64
	TotalPowerMW  float64
	BufferChipMM2 float64 // typical buffer chip area (§6.5: 100 mm²)
	DIMMPowerW    float64 // single DIMM power budget (§6.5: 13 W)
	AreaOverhead  float64 // fraction of buffer chip
	PowerOverhead float64 // fraction of DIMM power
}

// Analyze computes the Table 3 bottom line for a buffer chip's PEs.
func Analyze() System {
	area, pw := Totals(PEDesign())
	s := System{
		PEs:           pesPerChip,
		PEAreaMM2:     area,
		PEPowerMW:     pw,
		TotalAreaMM2:  area * pesPerChip,
		TotalPowerMW:  pw * pesPerChip,
		BufferChipMM2: 100,
		DIMMPowerW:    13,
	}
	s.AreaOverhead = s.TotalAreaMM2 / s.BufferChipMM2
	s.PowerOverhead = s.TotalPowerMW / 1000 / s.DIMMPowerW
	return s
}

// TableRow is one formatted Table 3 line.
type TableRow struct {
	Name    string
	AreaMM2 float64
	PowerMW float64
}

// Table3 renders the paper's Table 3 rows: per-component totals, one PE,
// and a buffer chip's pesPerChip PEs.
func Table3() []TableRow {
	var rows []TableRow
	for _, c := range PEDesign() {
		rows = append(rows, TableRow{
			Name:    fmt.Sprintf("%s x%d", c.Name, c.Quantity),
			AreaMM2: c.AreaMM2 * float64(c.Quantity),
			PowerMW: c.PowerMW * float64(c.Quantity),
		})
	}
	pe, pw := Totals(PEDesign())
	rows = append(rows, TableRow{Name: "PE", AreaMM2: pe, PowerMW: pw})
	rows = append(rows, TableRow{Name: fmt.Sprintf("%d PEs", pesPerChip), AreaMM2: pe * pesPerChip, PowerMW: pw * pesPerChip})
	return rows
}
