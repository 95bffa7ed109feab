package dna

import (
	"strings"
	"testing"
)

// FuzzParseSeq: ParseSeq never panics, fails exactly when some byte is not
// a base BaseFromByte accepts, and on success packs every base in order,
// so String() is the upper-cased input and parses back to an equal Seq.
func FuzzParseSeq(f *testing.F) {
	f.Add("")
	f.Add("ACGT")
	f.Add("acgtACGTnNacgt")
	f.Add(strings.Repeat("GATTACA", 10))
	f.Add("AC\x00GT\xff")
	f.Fuzz(func(t *testing.T, s string) {
		q, err := ParseSeq(s)
		bad := -1
		for i := 0; i < len(s); i++ {
			if _, ok := BaseFromByte(s[i]); !ok {
				bad = i
				break
			}
		}
		if (err != nil) != (bad >= 0) {
			t.Fatalf("ParseSeq(%q) error %v, first invalid byte at %d", s, err, bad)
		}
		if err != nil {
			return
		}
		if q.Len() != len(s) {
			t.Fatalf("ParseSeq(%q) has %d bases", s, q.Len())
		}
		str := q.String()
		if str != strings.ToUpper(s) {
			t.Fatalf("ParseSeq(%q).String() = %q", s, str)
		}
		r, err := ParseSeq(str)
		if err != nil {
			t.Fatalf("ParseSeq(%q) of a String() output: %v", str, err)
		}
		if !r.Equal(q) || r.String() != str {
			t.Fatalf("round trip of %q gave %q", str, r.String())
		}
	})
}
