// Command nmppak assembles short reads (FASTQ) into contigs (FASTA) with
// the PaKman pipeline, optionally simulating the run on the NMP-PaK
// hardware model.
//
// Usage:
//
//	nmppak -in reads.fastq -out contigs.fasta [-k 32] [-min-count 3]
//	       [-batches 1] [-min-contig 200] [-simulate]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"nmppak"
	"nmppak/internal/dna"
	"nmppak/internal/fastx"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nmppak: ")
	var (
		in        = flag.String("in", "", "input FASTQ file (required)")
		out       = flag.String("out", "contigs.fasta", "output FASTA file")
		k         = flag.Int("k", 32, "k-mer length (2..32)")
		minCount  = flag.Int("min-count", 3, "k-mer pruning threshold")
		batches   = flag.Int("batches", 1, "sequential batches (§4.4 batch processing)")
		minContig = flag.Int("min-contig", 200, "minimum reported contig length")
		simulate  = flag.Bool("simulate", false, "also replay compaction on the NMP hardware model")
	)
	flag.Parse()
	if *in == "" {
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
	recs, err := fastx.ReadFastq(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	var reads []nmppak.Read
	for _, r := range recs {
		seq, err := dna.ParseSeq(r.Seq)
		if err != nil {
			log.Printf("skipping read %s: %v", r.ID, err)
			continue
		}
		reads = append(reads, nmppak.Read{Seq: seq})
	}
	log.Printf("loaded %d reads", len(reads))

	if *simulate {
		tr, aout, err := nmppak.CaptureTrace(reads, *k, uint32(*minCount), 0)
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
		K: *k, MinCount: uint32(*minCount), Batches: *batches, MinContigLen: *minContig,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("assembled %d contigs, N50 %d, total %d bp",
		aout.Summary.Contigs, aout.Summary.N50, aout.Summary.TotalBases)
	writeContigs(*out, aout.Contigs, *minContig)
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
