// Command nmppak assembles short reads (FASTQ or FASTA, told apart by
// the first non-blank byte) into contigs (FASTA) with the PaKman
// pipeline, optionally simulating the run on the NMP-PaK hardware model.
//
// Usage:
//
//	nmppak -in reads.fastq -out contigs.fasta [-k 32] [-min-count 3]
//	       [-batches 1] [-min-contig 200] [-simulate]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"nmppak"
	"nmppak/internal/dna"
	"nmppak/internal/fastx"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nmppak: ")
	var (
		in        = flag.String("in", "", "input FASTQ or FASTA file (required)")
		out       = flag.String("out", "contigs.fasta", "output FASTA file")
		k         = flag.Int("k", 32, "k-mer length (2..32)")
		minCount  = flag.Int64("min-count", 3, "k-mer pruning threshold (0..4294967295)")
		batches   = flag.Int("batches", 1, "sequential batches (§4.4 batch processing)")
		minContig = flag.Int("min-contig", 200, "minimum reported contig length")
		simulate  = flag.Bool("simulate", false, "also replay compaction on the NMP hardware model")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	mc, err := checkFlags(*minCount, *batches)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmppak: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if *simulate && *batches != 1 {
		// CaptureTrace records a single-batch run; batching it would
		// simulate a different assembly than the one written out.
		fmt.Fprintf(os.Stderr, "nmppak: -simulate models a single-batch run; it cannot be combined with -batches %d\n", *batches)
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	recs, err := readReads(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	var reads []nmppak.Read
	split, dropped := 0, 0
	for _, r := range recs {
		if seq, err := dna.ParseSeq(r.Seq); err == nil {
			reads = append(reads, nmppak.Read{Seq: seq})
			continue
		}
		runs, d := acgtRuns(r.Seq, *k)
		split++
		dropped += d
		for _, run := range runs {
			reads = append(reads, nmppak.Read{Seq: dna.MustParseSeq(run)})
		}
	}
	if split > 0 {
		log.Printf("split %d reads at non-ACGT bases into ACGT runs of at least %d bases, dropping %d bases",
			split, *k, dropped)
	}
	log.Printf("loaded %d reads", len(reads))

	if *simulate {
		tr, aout, err := nmppak.CaptureTrace(reads, *k, mc, 0)
		if err != nil {
			log.Fatal(err)
		}
		res, err := nmppak.SimulateNMP(tr, nmppak.DefaultNMPConfig())
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("NMP-PaK model: %s", res)
		writeContigs(*out, aout.Contigs, *minContig)
		return
	}

	aout, err := nmppak.Assemble(reads, nmppak.AssemblyConfig{
		K: *k, MinCount: mc, Batches: *batches, MinContigLen: *minContig,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("assembled %d contigs, N50 %d, total %d bp",
		aout.Summary.Contigs, aout.Summary.N50, aout.Summary.TotalBases)
	writeContigs(*out, aout.Contigs, *minContig)
}

// checkFlags checks the flags that are narrowed before use and returns the
// pruning threshold as the pipeline takes it: -min-count must fit a
// uint32, which would otherwise wrap (-1 to a threshold that prunes every
// k-mer), and -batches must be at least 1.
func checkFlags(minCount int64, batches int) (uint32, error) {
	if minCount < 0 || minCount > math.MaxUint32 {
		return 0, fmt.Errorf("-min-count %d is outside [0, %d]", minCount, uint32(math.MaxUint32))
	}
	if batches < 1 {
		return 0, fmt.Errorf("-batches %d is below 1", batches)
	}
	return uint32(minCount), nil
}

// readReads reads FASTQ or FASTA records, the format chosen by the first
// byte that is not blank: '@' or '>'. An input of blanks holds no reads;
// any other first byte is an error.
func readReads(r io.Reader) ([]fastx.Record, error) {
	br := bufio.NewReader(r)
	for {
		b, err := br.ReadByte()
		if err == io.EOF {
			return nil, nil
		} else if err != nil {
			return nil, err
		}
		// UnreadByte cannot fail right after a ReadByte.
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '@':
			_ = br.UnreadByte()
			return fastx.ReadFastq(br)
		case '>':
			_ = br.UnreadByte()
			return fastx.ReadFasta(br)
		}
		return nil, fmt.Errorf("input starts with %q, neither FASTQ ('@') nor FASTA ('>')", b)
	}
}

// acgtRuns splits a read at every base outside ACGT (an N, say) and keeps
// the maximal ACGT runs of at least k bases, the only ones that hold a
// k-mer. dropped counts the bases left out: the non-ACGT ones and those of
// shorter runs.
func acgtRuns(seq string, k int) (runs []string, dropped int) {
	k = max(k, 1)
	start := 0
	for i := 0; i <= len(seq); i++ {
		if i < len(seq) {
			if _, ok := dna.BaseFromByte(seq[i]); ok {
				continue
			}
			dropped++
		}
		if run := seq[start:i]; len(run) >= k {
			runs = append(runs, run)
		} else {
			dropped += len(run)
		}
		start = i + 1
	}
	return runs, dropped
}

func writeContigs(path string, contigs []nmppak.Seq, minLen int) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	var recs []fastx.Record
	for i, c := range contigs {
		if c.Len() < minLen {
			continue
		}
		recs = append(recs, fastx.Record{ID: fmt.Sprintf("contig_%d len=%d", i, c.Len()), Seq: c.String()})
	}
	if err := fastx.WriteFasta(f, recs, 70); err != nil {
		f.Close()
		log.Fatal(err)
	}
	// Close reports the final flush of the file; a failure here means the
	// FASTA on disk is truncated.
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d contigs to %s", len(recs), path)
}
