package main

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"nmppak/internal/fastx"
)

// A read with non-ACGT bases keeps its ACGT runs of at least k bases; the
// rest of its bases are counted as dropped.
func TestACGTRuns(t *testing.T) {
	for _, c := range []struct {
		name    string
		seq     string
		k       int
		runs    []string
		dropped int
	}{
		{"N at start", "NACGTACGT", 4, []string{"ACGTACGT"}, 1},
		{"N in the middle", "ACGTANCGTA", 4, []string{"ACGTA", "CGTA"}, 1},
		{"N at end", "ACGTACGTN", 4, []string{"ACGTACGT"}, 1},
		{"all N", "NNNN", 2, nil, 4},
		{"run shorter than k", "ACNGTACGT", 4, []string{"GTACGT"}, 3},
		{"N block and lowercase", "acgtNNNNacgg", 4, []string{"acgt", "acgg"}, 4},
		{"other IUPAC codes", "ACGTRYACGT", 4, []string{"ACGT", "ACGT"}, 2},
		{"no run reaches k", "ACGNTTA", 5, nil, 7},
	} {
		runs, dropped := acgtRuns(c.seq, c.k)
		if !slices.Equal(runs, c.runs) || dropped != c.dropped {
			t.Errorf("%s: acgtRuns(%q, %d) = %q, %d dropped; want %q, %d",
				c.name, c.seq, c.k, runs, dropped, c.runs, c.dropped)
		}
	}
}

// The -in file is FASTQ or FASTA by its first non-blank byte; a file
// that starts with anything else is an error, not an empty read set.
func TestReadReads(t *testing.T) {
	want := []fastx.Record{{ID: "r1", Seq: "ACGTACGT"}, {ID: "r2", Seq: "GGCCAA"}}
	fastq := []fastx.Record{{ID: "r1", Seq: "ACGTACGT", Qual: "IIIIIIII"}, {ID: "r2", Seq: "GGCCAA", Qual: "IIIIII"}}
	for _, c := range []struct {
		name, in string
		want     []fastx.Record
	}{
		{"FASTQ", "@r1\nACGTACGT\n+\nIIIIIIII\n@r2\nGGCCAA\n+\nIIIIII\n", fastq},
		{"FASTQ after blank lines", "\n \r\n@r1\nACGTACGT\n+\nIIIIIIII\n@r2\nGGCCAA\n+\nIIIIII\n", fastq},
		{"FASTA", ">r1\nACGT\nACGT\n>r2\nGGCCAA\n", want},
		{"FASTA after blank lines", "\t\n\n>r1\nACGTACGT\n>r2\nGGCC\nAA\n", want},
		{"blank", " \n\n", nil},
	} {
		got, err := readReads(strings.NewReader(c.in))
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: readReads = %+v, %v; want %+v", c.name, got, err, c.want)
		}
	}
	for _, in := range []string{"ACGTACGT\n", "\n#r1\nACGT\n"} {
		if recs, err := readReads(strings.NewReader(in)); err == nil {
			t.Errorf("readReads(%q) = %+v with no error; want an error for neither FASTQ nor FASTA", in, recs)
		}
	}
}

// Out-of-range numeric flags are usage errors, not values that wrap or
// fall back: one row per bad value, the defaults, and the ends of the
// -min-count range.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name      string
		minCount  int64
		batches   int
		want      uint32
		wantError bool
	}{
		{"defaults", 3, 1, 3, false},
		{"min-count 0", 0, 1, 0, false},
		{"min-count 2^32-1", 1<<32 - 1, 1, 1<<32 - 1, false},
		{"min-count -1", -1, 1, 0, true},
		{"min-count 2^32", 1 << 32, 1, 0, true},
		{"batches 0", 3, 0, 0, true},
		{"batches -3", 3, -3, 0, true},
	} {
		got, err := checkFlags(c.minCount, c.batches)
		if (err != nil) != c.wantError || got != c.want {
			t.Errorf("%s: checkFlags(%d, %d) = %d, %v; want %d, error %t",
				c.name, c.minCount, c.batches, got, err, c.want, c.wantError)
		}
	}
}
