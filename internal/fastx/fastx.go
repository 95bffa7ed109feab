// Package fastx reads and writes FASTA and FASTQ files, the interchange
// formats between the read simulator (the paper uses ART) and the assembler.
package fastx

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode"
)

// Record is a single FASTA/FASTQ entry. Qual is empty for FASTA records.
type Record struct {
	ID   string
	Seq  string
	Qual string
}

// checkID rejects a record ID the readers would not return as written:
// they end the header at the line break and trim surrounding whitespace.
func checkID(id string) error {
	if strings.ContainsAny(id, "\r\n") || strings.TrimSpace(id) != id {
		return fmt.Errorf("fastx: record ID %q has a line break or leading or trailing whitespace", id)
	}
	return nil
}

// checkLetters rejects whitespace, line breaks included, in a sequence or
// quality string: the readers split and trim lines there.
func checkLetters(id, what, s string) error {
	if strings.IndexFunc(s, unicode.IsSpace) >= 0 {
		return fmt.Errorf("fastx: record %q: %s contains whitespace", id, what)
	}
	return nil
}

// WriteFasta writes records in FASTA format with the given line wrap width
// (no wrapping when wrap <= 0). Quality strings are not written. A record
// ReadFasta would parse back differently is an error: see checkID, and a
// sequence must hold no whitespace and no '>', which could start a line.
func WriteFasta(w io.Writer, recs []Record, wrap int) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		if err := checkID(r.ID); err != nil {
			return err
		}
		if err := checkLetters(r.ID, "sequence", r.Seq); err != nil {
			return err
		}
		if strings.Contains(r.Seq, ">") {
			return fmt.Errorf("fastx: record %q: sequence contains '>'", r.ID)
		}
		if _, err := fmt.Fprintf(bw, ">%s\n", r.ID); err != nil {
			return err
		}
		s := r.Seq
		if wrap <= 0 {
			if _, err := fmt.Fprintln(bw, s); err != nil {
				return err
			}
			continue
		}
		for len(s) > 0 {
			n := wrap
			if n > len(s) {
				n = len(s)
			}
			if _, err := fmt.Fprintln(bw, s[:n]); err != nil {
				return err
			}
			s = s[n:]
		}
	}
	return bw.Flush()
}

// WriteFastq writes records in 4-line FASTQ format. Records without quality
// strings get a constant maximum-quality string. A record ReadFastq would
// parse back differently is an error: see checkID and checkLetters.
func WriteFastq(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		if err := checkID(r.ID); err != nil {
			return err
		}
		if err := checkLetters(r.ID, "sequence", r.Seq); err != nil {
			return err
		}
		if err := checkLetters(r.ID, "quality", r.Qual); err != nil {
			return err
		}
		q := r.Qual
		if q == "" {
			q = strings.Repeat("I", len(r.Seq))
		}
		if len(q) != len(r.Seq) {
			return fmt.Errorf("fastx: record %q quality length %d != sequence length %d", r.ID, len(q), len(r.Seq))
		}
		if _, err := fmt.Fprintf(bw, "@%s\n%s\n+\n%s\n", r.ID, r.Seq, q); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFasta parses a FASTA stream. Sequences may span multiple lines.
func ReadFasta(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	var recs []Record
	var cur *Record
	var sb strings.Builder
	flush := func() {
		if cur != nil {
			cur.Seq = sb.String()
			recs = append(recs, *cur)
			sb.Reset()
		}
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '>' {
			flush()
			cur = &Record{ID: strings.TrimSpace(line[1:])}
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("fastx: sequence data before first FASTA header")
		}
		sb.WriteString(line)
	}
	flush()
	return recs, sc.Err()
}

// ReadFastq parses a 4-line-per-record FASTQ stream.
func ReadFastq(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	var recs []Record
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			s := strings.TrimRight(sc.Text(), "\r\n")
			return s, true
		}
		return "", false
	}
	for {
		hdr, ok := next()
		if !ok {
			break
		}
		if hdr == "" {
			continue
		}
		if hdr[0] != '@' {
			return nil, fmt.Errorf("fastx: line %d: expected @ header, got %q", line, hdr)
		}
		seq, ok := next()
		if !ok {
			return nil, fmt.Errorf("fastx: truncated record at line %d", line)
		}
		plus, ok := next()
		if !ok || len(plus) == 0 || plus[0] != '+' {
			return nil, fmt.Errorf("fastx: line %d: expected + separator", line)
		}
		qual, ok := next()
		if !ok {
			return nil, fmt.Errorf("fastx: truncated quality at line %d", line)
		}
		if len(qual) != len(seq) {
			return nil, fmt.Errorf("fastx: line %d: quality length %d != sequence length %d", line, len(qual), len(seq))
		}
		recs = append(recs, Record{ID: strings.TrimSpace(hdr[1:]), Seq: seq, Qual: qual})
	}
	return recs, sc.Err()
}
