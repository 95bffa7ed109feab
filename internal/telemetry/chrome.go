// Chrome-trace (Perfetto-loadable) JSON export of a recorded span
// stream: one trace-event process per track kind, one thread per track,
// complete ("X") events for spans and instant ("i") events for markers.
// Timestamps are emitted as raw cycle counts (1 cycle = 0.625 ns at
// 1.6 GHz) so the output is integer-only and byte-identical across runs;
// the unit is recorded in the trace metadata.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"nmppak/internal/sim"
)

// chromePID maps a track kind to a stable trace-event process ID.
func chromePID(k TrackKind) int { return int(k) + 1 }

// WriteChrome writes the collector's tracks as Chrome trace-event JSON.
// Output is deterministic: tracks in creation order, spans in append
// order, integer timestamps only.
func (c *Collector) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns","otherData":{"clock":"1 ts = 1 cycle = 0.625 ns (1.6 GHz)"},"traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteByte('\n')
	}
	ev := func(s string, args ...any) {
		sep()
		fmt.Fprintf(bw, s, args...)
	}
	// Process/thread naming metadata: one process per kind present, one
	// thread per track.
	seen := [5]bool{}
	for _, t := range c.tracks {
		if !seen[t.Kind] {
			seen[t.Kind] = true
			ev(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%q}}`,
				chromePID(t.Kind), t.Kind.String())
		}
		ev(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%q}}`,
			chromePID(t.Kind), t.ID+1, t.Name)
		ev(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`,
			chromePID(t.Kind), t.ID+1, t.ID)
	}
	// Spans are appended with strconv rather than formatted with fmt: a
	// run exports hundreds of thousands of them, and the bytes are the
	// same as the %d/%q verbs would produce.
	var b []byte
	for _, t := range c.tracks {
		pid, tid := int64(chromePID(t.Kind)), int64(t.ID+1)
		for i := range t.Spans {
			s := &t.Spans[i]
			// Tenant possession slices render under the tenant's label so
			// Perfetto (which colors by event name) paints each tenant its
			// own color across the fleet timeline.
			name := s.Kind.String()
			if s.Kind == SpanTenant {
				if l, ok := c.Label(s.Arg1); ok {
					name = l
				}
			}
			if s.Start == s.End {
				b = append(b[:0], `{"ph":"i","s":"t","pid":`...)
			} else {
				b = append(b[:0], `{"ph":"X","pid":`...)
			}
			b = strconv.AppendInt(b, pid, 10)
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, tid, 10)
			b = append(b, `,"ts":`...)
			b = strconv.AppendInt(b, s.Start, 10)
			if s.Start != s.End {
				b = append(b, `,"dur":`...)
				b = strconv.AppendInt(b, s.End-s.Start, 10)
			}
			b = append(b, `,"name":`...)
			b = strconv.AppendQuote(b, name)
			b = append(b, `,"args":{"arg1":`...)
			b = strconv.AppendInt(b, s.Arg1, 10)
			b = append(b, `,"arg2":`...)
			b = strconv.AppendInt(b, s.Arg2, 10)
			b = append(b, "}}"...)
			sep()
			bw.Write(b)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// End returns the latest span end across every track (the recorded
// timeline's horizon).
func (c *Collector) End() sim.Cycle {
	var end sim.Cycle
	for _, t := range c.tracks {
		for i := range t.Spans {
			if t.Spans[i].End > end {
				end = t.Spans[i].End
			}
		}
	}
	return end
}
