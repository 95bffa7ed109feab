package fastx

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzReadFasta: ReadFasta never panics, and whenever WriteFasta accepts a
// set of records — those just parsed plus one built from the fuzzed ID and
// sequence — reading the output returns exactly those records.
func FuzzReadFasta(f *testing.F) {
	f.Add([]byte(">a\nACGT\nTTTT\n\n>b\nGG\n"), "c d", "ACGTAC", 4)
	f.Add([]byte("ACGT\n"), "a\nACGT", "ACGT", 0)
	f.Add([]byte(">x \r\n A C \n>\n"), " ", ">>", -3)
	f.Fuzz(func(t *testing.T, data []byte, id, seq string, wrap int) {
		recs, err := ReadFasta(bytes.NewReader(data))
		if err != nil {
			recs = nil
		}
		recs = append(recs, Record{ID: id, Seq: seq})
		var buf bytes.Buffer
		if WriteFasta(&buf, recs, wrap%80) != nil {
			return
		}
		got, err := ReadFasta(&buf)
		if err != nil {
			t.Fatalf("reading written records: %v\n%q", err, buf.String())
		}
		if !slices.Equal(got, recs) {
			t.Fatalf("wrote %q, read back %q", recs, got)
		}
	})
}

// FuzzReadFastq is FuzzReadFasta for the FASTQ reader and writer; a record
// written without qualities reads back with the writer's default ones.
func FuzzReadFastq(f *testing.F) {
	f.Add([]byte("@r/1\nACGTA\n+\nIIIH!\n"), "r/2", "TTTT", "")
	f.Add([]byte("@r\nACGT\n+\nII\n"), "a", "AC\nGT", "IIIII")
	f.Add([]byte("\n@ x \r\nA C\r\n+x\nI I\n"), "y", "GG", "#!")
	f.Fuzz(func(t *testing.T, data []byte, id, seq, qual string) {
		recs, err := ReadFastq(bytes.NewReader(data))
		if err != nil {
			recs = nil
		}
		recs = append(recs, Record{ID: id, Seq: seq, Qual: qual})
		var buf bytes.Buffer
		if WriteFastq(&buf, recs) != nil {
			return
		}
		got, err := ReadFastq(&buf)
		if err != nil {
			t.Fatalf("reading written records: %v\n%q", err, buf.String())
		}
		want := slices.Clone(recs)
		for i := range want {
			if want[i].Qual == "" {
				want[i].Qual = strings.Repeat("I", len(want[i].Seq))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("wrote %q, read back %q", want, got)
		}
	})
}
