package kmer

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// FuzzRadixVsSortSlice cross-checks SortUint64 against sort.Slice on
// arbitrary word streams: the MSD digit steps and the small-bucket
// insertion and slices.Sort paths.
func FuzzRadixVsSortSlice(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	// A full 11-bit first digit, with the top 16 bits zero.
	r := rand.New(rand.NewSource(42))
	f.Add(wordBytes(2*longSort+100, func(int) uint64 { return r.Uint64() >> 16 }))
	// All-equal words; words sharing their top 40 bits, one giant
	// top-digit bucket; fewer than 11 used bits; and lengths on either side
	// of each small-input cutoff and of the length at which the first
	// digit widens to all 11 bits.
	f.Add(wordBytes(3*longSort, func(int) uint64 { return 0x0123456789abcdef }))
	f.Add(wordBytes(3*longSort, func(i int) uint64 { return 0xfedcba9876<<24 | mix(i)&(1<<24-1) }))
	f.Add(wordBytes(3*longSort, func(i int) uint64 { return mix(i) & 0x3ff }))
	for _, n := range []int{insertionMax, insertionMax + 1, cmpSortMax, cmpSortMax + 1, 2*digitBuckets - 1, 2 * digitBuckets} {
		f.Add(wordBytes(n, mix))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v := make([]uint64, len(data)/8)
		for i := range v {
			v[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		want := append([]uint64(nil), v...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		SortUint64(v)
		for i := range v {
			if v[i] != want[i] {
				t.Fatalf("mismatch at %d: %#x want %#x (n=%d)", i, v[i], want[i], len(v))
			}
		}
	})
}

// longSort is an input length whose first MSD digit takes all 11 bits,
// about four words per sub-bucket.
const longSort = 4 * digitBuckets

// TestRadixLargeRandom sorts inputs past a full first digit across bit
// widths, down to one used bit.
func TestRadixLargeRandom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, shift := range []uint{0, 16, 40, 63} {
		for range 4 {
			n := longSort*2 + r.Intn(1000)
			v := make([]uint64, n)
			for i := range v {
				v[i] = r.Uint64() >> shift
			}
			want := append([]uint64(nil), v...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			SortUint64(v)
			for i := range v {
				if v[i] != want[i] {
					t.Fatalf("shift=%d n=%d: mismatch at %d", shift, n, i)
				}
			}
		}
	}
}

// wordBytes encodes n words word(0..n-1) as a FuzzRadixVsSortSlice input.
func wordBytes(n int, word func(i int) uint64) []byte {
	b := make([]byte, 8*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(b[8*i:], word(i))
	}
	return b
}

// mix scatters i over the 64-bit words, so no seed starts sorted.
func mix(i int) uint64 { return uint64(i+1) * 0x9e3779b97f4a7c15 }

func benchWords(n int) []uint64 {
	r := rand.New(rand.NewSource(3))
	v := make([]uint64, n)
	for i := range v {
		v[i] = r.Uint64()
	}
	return v
}

// BenchmarkRadixSort measures the production sort on a counting-sized
// input (1M words ~ a 1M-instance k-mer batch).
func BenchmarkRadixSort(b *testing.B) {
	src := benchWords(1 << 20)
	v := make([]uint64, len(src))
	b.SetBytes(8 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(v, src)
		SortUint64(v)
	}
}

// BenchmarkComparatorSort is the pre-radix baseline (sort.Slice with a
// closure comparator) on the same input, kept for the regression table.
func BenchmarkComparatorSort(b *testing.B) {
	src := benchWords(1 << 20)
	v := make([]uint64, len(src))
	b.SetBytes(8 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(v, src)
		sort.Slice(v, func(x, y int) bool { return v[x] < v[y] })
	}
}

// BenchmarkSortSizes measures SortUint64 on random words from a
// top-digit-sized input up to a k-mer stream the size of assemble-100x's.
func BenchmarkSortSizes(b *testing.B) {
	for _, n := range []int{4096, 13_000, 100_000, 1 << 20, 6_900_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := benchWords(n)
			v := make([]uint64, n)
			b.SetBytes(int64(8 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(v, src)
				SortUint64(v)
			}
		})
	}
}
