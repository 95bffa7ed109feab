package power

import (
	"math"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPEMatchesTable3(t *testing.T) {
	area, pw := Totals(PEDesign())
	if !approx(area, 0.109, 0.003) {
		t.Fatalf("PE area %.4f mm^2, Table 3 says 0.110", area)
	}
	if !approx(pw, 30.3, 1.0) {
		t.Fatalf("PE power %.2f mW, Table 3 says 30.6", pw)
	}
}

func TestSixteenPEOverheadNegligible(t *testing.T) {
	s := Analyze()
	if !approx(s.TotalAreaMM2, 1.75, 0.1) {
		t.Fatalf("16-PE area %.3f, Table 3 says 1.763", s.TotalAreaMM2)
	}
	if !approx(s.TotalPowerMW, 485, 15) {
		t.Fatalf("16-PE power %.1f, Table 3 says 489.3", s.TotalPowerMW)
	}
	// §6.5: 1.8% area, 3.8% power.
	if s.AreaOverhead > 0.025 || s.PowerOverhead > 0.05 {
		t.Fatalf("overheads %.3f/%.3f not negligible", s.AreaOverhead, s.PowerOverhead)
	}
}

func TestTable3Rows(t *testing.T) {
	rows := Table3()
	if len(rows) != 6 {
		t.Fatalf("rows = %d want 6", len(rows))
	}
	if rows[4].Name != "PE" || rows[5].Name != "16 PEs" {
		t.Fatalf("row names: %+v", rows)
	}
	if rows[5].AreaMM2 <= rows[4].AreaMM2*15 {
		t.Fatal("16 PEs must be ~16x one PE")
	}
}

func TestCompareGPU(t *testing.T) {
	// §6.6: a 379 GB working set needs five 80 GB A100s; NMP-PaK wins on
	// power and area by orders of magnitude.
	c := compareGPU(379)
	if c.GPUsNeeded != 5 {
		t.Fatalf("GPUs = %d want 5", c.GPUsNeeded)
	}
	if c.PowerRatio < 100 || c.AreaRatio < 100 {
		t.Fatalf("ratios %.0f/%.0f should be in the hundreds", c.PowerRatio, c.AreaRatio)
	}
	if compareGPU(10).GPUsNeeded != 1 {
		t.Fatal("small set needs one GPU")
	}
}

// gpuComparison reproduces the §6.6 resource arithmetic: serving a given
// working set with A100 80 GB GPUs versus NMP-PaK DIMMs.
type gpuComparison struct {
	WorkingSetGB float64
	GPUsNeeded   int
	GPUPowerW    float64
	GPUAreaMM2   float64
	NMPPowerW    float64
	NMPAreaMM2   float64
	PowerRatio   float64
	AreaRatio    float64
}

// compareGPU computes the comparison for a working set in GB. Constants
// follow §6.6: an A100 80 GB draws 300 W over 826 mm²; the NMP-PaK
// 8-DIMM/512 GB configuration draws 3.9 W of PE power over 14.1 mm².
func compareGPU(workingSetGB float64) gpuComparison {
	gpus := int((workingSetGB + 79.999) / 80)
	if gpus < 1 {
		gpus = 1
	}
	nmpPEs := 8 * pesPerChip
	_, pePowerMW := Totals(PEDesign())
	peArea, _ := Totals(PEDesign())
	c := gpuComparison{
		WorkingSetGB: workingSetGB,
		GPUsNeeded:   gpus,
		GPUPowerW:    float64(gpus) * 300,
		GPUAreaMM2:   float64(gpus) * 826,
		NMPPowerW:    float64(nmpPEs) * pePowerMW / 1000,
		NMPAreaMM2:   float64(nmpPEs) * peArea,
	}
	c.PowerRatio = c.GPUPowerW / c.NMPPowerW
	c.AreaRatio = c.GPUAreaMM2 / c.NMPAreaMM2
	return c
}
