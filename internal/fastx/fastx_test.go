package fastx

import (
	"bytes"
	"strings"
	"testing"
)

func TestFastaRoundTrip(t *testing.T) {
	recs := []Record{
		{ID: "contig_1", Seq: "ACGTACGTACGT"},
		{ID: "contig_2 with description", Seq: strings.Repeat("ACGT", 40)},
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, recs, 60); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFasta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].ID != recs[i].ID || got[i].Seq != recs[i].Seq {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

func TestFastaMultiline(t *testing.T) {
	in := ">a\nACGT\nTTTT\n\n>b\nGG\n"
	got, err := ReadFasta(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != "ACGTTTTT" || got[1].Seq != "GG" {
		t.Fatalf("parse: %+v", got)
	}
}

func TestFastaErrorOnHeaderlessData(t *testing.T) {
	if _, err := ReadFasta(strings.NewReader("ACGT\n")); err == nil {
		t.Fatal("expected error")
	}
}

func TestFastqRoundTrip(t *testing.T) {
	recs := []Record{
		{ID: "read/1", Seq: "ACGTA", Qual: "IIIH!"},
		{ID: "read/2", Seq: "TTTT"},
	}
	var buf bytes.Buffer
	if err := WriteFastq(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFastq(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records", len(got))
	}
	if got[0].Qual != "IIIH!" {
		t.Fatalf("qual mismatch: %q", got[0].Qual)
	}
	if got[1].Qual != "IIII" {
		t.Fatalf("default qual: %q", got[1].Qual)
	}
}

func TestFastqRejectsLengthMismatch(t *testing.T) {
	in := "@r\nACGT\n+\nII\n"
	if _, err := ReadFastq(strings.NewReader(in)); err == nil {
		t.Fatal("expected error")
	}
	var buf bytes.Buffer
	if err := WriteFastq(&buf, []Record{{ID: "r", Seq: "ACGT", Qual: "I"}}); err == nil {
		t.Fatal("expected write error")
	}
}

func TestFastqRejectsMalformed(t *testing.T) {
	for _, in := range []string{"ACGT\n", "@r\nACGT\nII\nII\n", "@r\nACGT\n"} {
		if _, err := ReadFastq(strings.NewReader(in)); err == nil {
			t.Fatalf("expected error for %q", in)
		}
	}
}

// TestWritersRejectAmbiguousRecords pins records that used to be written
// without an error and then read back as something else.
func TestWritersRejectAmbiguousRecords(t *testing.T) {
	for _, r := range []Record{
		{ID: "a\nACGT", Seq: "ACGT"}, // read back as ID "a", Seq "ACGTACGT"
		{ID: " a", Seq: "ACGT"},
		{ID: "a", Seq: "AC GT"},
		{ID: "a", Seq: "AC>GT"},
	} {
		if err := WriteFasta(&bytes.Buffer{}, []Record{r}, 2); err == nil {
			t.Errorf("WriteFasta(%+v) succeeded", r)
		}
	}
	for _, r := range []Record{
		{ID: "a\r", Seq: "ACGT"},
		{ID: "a", Seq: "AC\nGT", Qual: "IIIII"}, // unreadable file
		{ID: "a", Seq: "ACGT", Qual: "II\tI"},
	} {
		if err := WriteFastq(&bytes.Buffer{}, []Record{r}); err == nil {
			t.Errorf("WriteFastq(%+v) succeeded", r)
		}
	}
}
