package main

import "testing"

// Negative numeric flags are usage errors, not values that fall back to a
// default: one row per bad value, the defaults, and the smallest valid
// values.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name           string
		scale, workers int
		wantError      bool
	}{
		{"defaults", 0, 0, false},
		{"scale and serial", 60_000, 1, false},
		{"scale 1", 1, 0, false},
		{"scale -5", -5, 0, true},
		{"workers -3", 0, -3, true},
		{"workers -1", 0, -1, true},
		{"both negative", -1, -1, true},
	} {
		err := checkFlags(c.scale, c.workers)
		if (err != nil) != c.wantError {
			t.Errorf("%s: checkFlags(%d, %d) = %v, want error %v", c.name, c.scale, c.workers, err, c.wantError)
		}
	}
}
