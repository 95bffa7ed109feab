package scaleout

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nmppak/internal/dram"
	"nmppak/internal/nmp"
	"nmppak/internal/sim"
)

// gobCheckpointState mirrors CheckpointState for encoding/gob, which
// writes a Go array as a type of its own: the engine's channel block and
// a channel's bank and rank arrays are here the slices checkpointTypes
// was pinned with. Its fields follow CheckpointState's one for one
// (mirror fails otherwise); the types they share are the real ones.
type gobCheckpointState struct {
	Version               uint32
	ConfigDigest          uint64
	TraceDigest           uint64
	Nodes                 int
	K                     int
	Overlap               bool
	Partitioner           string
	Topology              string
	Count                 PhaseCycles
	Construct             PhaseCycles
	PerNode               []NodeStats
	PreludeExchangedBytes int64
	ResumeIter            int
	Durations             [][]sim.Cycle
	Engines               []gobEngineState
	Compute               sim.Cycle
	Exchange              sim.Cycle
	CompactExchangedBytes int64
	Rebalance             *RebalanceState
	Elastic               *ElasticState
}

type gobEngineState struct {
	Next     int
	Clock    sim.Cycle
	Res      nmp.Result
	Channels []gobChannelState
}

type gobChannelState struct {
	Banks   [][]dram.BankState
	Ranks   []dram.RankState
	BusFree sim.Cycle
	Stats   dram.Stats
}

// mirrorTypes is the type section gob writes for gobCheckpointState:
// checkpointTypes with the mirror's type names.
var mirrorTypes = renamed(checkpointTypes, map[string]string{
	"CheckpointState":     "gobCheckpointState",
	"EngineState":         "gobEngineState",
	"[]nmp.EngineState":   "[]scaleout.gobEngineState",
	"ChannelState":        "gobChannelState",
	"[]dram.ChannelState": "[]scaleout.gobChannelState",
})

// renamed rewrites the type names in a gob type section, one definition
// message at a time: a name is a length-prefixed string, and the only
// count a definition holds besides the message's own length.
func renamed(types string, names map[string]string) string {
	d := codec{dec: true, b: []byte(types)}
	var out []byte
	for len(d.b) > 0 {
		n := d.get()
		msg := string(d.b[:n])
		d.b = d.b[n:]
		for from, to := range names {
			msg = strings.Replace(msg, string(rune(len(from)))+from, string(rune(len(to)))+to, 1)
		}
		out = append(appendUint(out, uint64(len(msg))), msg...)
	}
	return string(out)
}

// mirror sets dst to src field by field, where one is a CheckpointState
// and the other a gobCheckpointState, or parts of them: a slice stands
// for an array, or a pointer to one, of the same elements. It reports
// false when the field lists differ or a slice does not fit its array.
func mirror(dst, src reflect.Value) bool {
	if dst.Type() == src.Type() {
		dst.Set(src)
		return true
	}
	switch src.Kind() {
	case reflect.Struct:
		if dst.NumField() != src.NumField() {
			return false
		}
		for i := range src.NumField() {
			if dst.Type().Field(i).Name != src.Type().Field(i).Name || !mirror(dst.Field(i), src.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if src.IsNil() {
			return true
		}
		if dst.Kind() == reflect.Pointer {
			dst.Set(reflect.New(dst.Type().Elem()))
			dst = dst.Elem()
		}
		return mirror(dst, src.Elem())
	case reflect.Slice:
		if src.IsNil() {
			return dst.Kind() != reflect.Array // a nil slice or block; an array is never missing
		}
		if dst.Kind() == reflect.Pointer {
			dst.Set(reflect.New(dst.Type().Elem()))
			dst = dst.Elem()
		}
		fallthrough
	case reflect.Array:
		if dst.Kind() == reflect.Slice {
			dst.Set(reflect.MakeSlice(dst.Type(), src.Len(), src.Len()))
		} else if dst.Len() != src.Len() {
			return false
		}
		for i := range src.Len() {
			if !mirror(dst.Index(i), src.Index(i)) {
				return false
			}
		}
		return true
	}
	return false
}

// gobStream is the stream a fresh gob.Encoder writes for m.
func gobStream(m *gobCheckpointState) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// mirrorOf is ck's mirror.
func mirrorOf(ck *CheckpointState) *gobCheckpointState {
	m := new(gobCheckpointState)
	if !mirror(reflect.ValueOf(m).Elem(), reflect.ValueOf(ck).Elem()) {
		panic("gobCheckpointState does not mirror CheckpointState")
	}
	return m
}

// gobFirst makes the mirror this test binary's first gob use, before any
// test runs: gob numbers types from a process-wide counter, so the
// reference encoder then writes mirrorTypes byte for byte whatever other
// tests encode, in whatever order -shuffle runs them.
var gobFirst = gobStream(&gobCheckpointState{})

// mirrorBlob is the blob encoding/gob writes for m: magic, version tag,
// checkpointTypes and the value message a fresh encoder writes after
// mirrorTypes.
func mirrorBlob(m *gobCheckpointState) []byte {
	blob := binary.LittleEndian.AppendUint32([]byte(checkpointMagic), m.Version)
	blob = append(blob, checkpointTypes...)
	return append(blob, gobStream(m)[len(mirrorTypes):]...)
}

// gobReference is the blob encoding/gob writes for ck.
func gobReference(ck *CheckpointState) []byte { return mirrorBlob(mirrorOf(ck)) }

// gobMirror decodes a blob's payload with encoding/gob into the mirror,
// rejecting trailing bytes.
func gobMirror(blob []byte) (*gobCheckpointState, error) {
	r := bytes.NewReader(blob[len(checkpointMagic)+4:])
	m := new(gobCheckpointState)
	if err := gob.NewDecoder(r).Decode(m); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", r.Len())
	}
	return m, nil
}

// gobDecode decodes a blob's payload with encoding/gob, rejecting
// trailing bytes and a state that does not fit the arrays.
func gobDecode(blob []byte) (*CheckpointState, error) {
	m, err := gobMirror(blob)
	if err != nil {
		return nil, err
	}
	ck := new(CheckpointState)
	if !mirror(reflect.ValueOf(ck).Elem(), reflect.ValueOf(m).Elem()) {
		return nil, errors.New("the state does not fit the engine and DRAM arrays")
	}
	return ck, nil
}

// valueMessage returns the value message of a blob's gob stream, the
// message after the type definitions, whose ids are negative.
func valueMessage(t testing.TB, blob []byte) []byte {
	t.Helper()
	d := codec{dec: true, b: blob[len(checkpointMagic)+4:]}
	for len(d.b) > 0 {
		rest := d.b
		n := d.get()
		if d.err != nil || n > uint64(len(d.b)) {
			break
		}
		if msg := (codec{dec: true, b: d.b[:n]}); zagzig(msg.get()) > 0 {
			return rest
		}
		d.b = d.b[n:]
	}
	t.Fatal("no value message in the gob stream")
	return nil
}

// checkGobTypes checks that gob writes checkpointTypes, under the
// mirror's type names, for the mirror of CheckpointState in this binary.
func checkGobTypes(t testing.TB) {
	t.Helper()
	if !strings.HasPrefix(string(gobFirst), mirrorTypes) {
		t.Errorf("encoding/gob's type section for gobCheckpointState is not checkpointTypes renamed: a type reachable from it changed, " +
			"or this binary used gob before the gobFirst package variable")
	}
}

// checkCodec checks Marshal against encoding/gob on ck, and that both
// decoders read the blob back to the same state, which marshals to the
// same bytes.
func checkCodec(t testing.TB, ck *CheckpointState) {
	t.Helper()
	blob, err := ck.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if want := gobReference(ck); !bytes.Equal(blob, want) {
		i := 0
		for i < min(len(blob), len(want)) && blob[i] == want[i] {
			i++
		}
		t.Fatalf("Marshal wrote %d bytes, gob %d; first difference at byte %d\nstate: %+v", len(blob), len(want), i, ck)
	}
	hand, err := decodeCheckpoint(blob[len(checkpointMagic)+4:])
	if err != nil {
		t.Fatalf("decoding a Marshal blob: %v", err)
	}
	again, err := hand.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := gobDecode(blob)
	if err != nil {
		t.Fatalf("gob decoding a Marshal blob: %v", err)
	}
	if !sameState(hand, ref) {
		t.Fatalf("the decoders disagree on a Marshal blob:\n%+v\nvs gob\n%+v", hand, ref)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("decode and Marshal changed the blob")
	}
}

// sameState reports whether two decoded states are equal. Floats are
// compared by their bits, since a fuzzed blob may carry NaN, which
// DeepEqual never equates; sameState then zeroes them in both.
func sameState(a, b *CheckpointState) bool {
	if len(a.Engines) != len(b.Engines) {
		return false
	}
	for i := range a.Engines {
		ra, rb := &a.Engines[i].Res, &b.Engines[i].Res
		if math.Float64bits(ra.Seconds) != math.Float64bits(rb.Seconds) ||
			math.Float64bits(ra.Utilization) != math.Float64bits(rb.Utilization) {
			return false
		}
		ra.Seconds, ra.Utilization, rb.Seconds, rb.Utilization = 0, 0, 0, 0
	}
	return reflect.DeepEqual(a, b)
}

// randomState draws a CheckpointState that reaches the codec's edges.
func randomState(r *rand.Rand) *CheckpointState {
	ck := new(CheckpointState)
	fill(r, reflect.ValueOf(ck).Elem())
	return ck
}

// fill sets v, recursively, to a random value: numbers are zero, ±1, an
// extreme, small or random bits; floats also NaN, ±Inf and -0; strings
// empty, short or past one length byte; slices nil, empty, short or, for
// scalars, past one count byte; pointers nil or set, an engine's channel
// block always set.
func fill(r *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 1)
	case reflect.Int, reflect.Int64:
		v.SetInt([]int64{0, 1, -1, math.MaxInt64, math.MinInt64, r.Int63n(300) - 150, int64(r.Uint64())}[r.Intn(7)])
	case reflect.Uint16, reflect.Uint32, reflect.Uint64:
		bits := v.Type().Bits()
		max := uint64(1)<<bits - 1
		if bits == 64 {
			max = math.MaxUint64
		}
		v.SetUint([]uint64{0, 1, max, uint64(r.Intn(300)), r.Uint64() & max}[r.Intn(5)])
	case reflect.Float64:
		v.SetFloat([]float64{0, math.Copysign(0, -1), 1.5, -2, math.Inf(1), math.Inf(-1), math.NaN(), r.NormFloat64() * 1e9}[r.Intn(8)])
	case reflect.String:
		v.SetString([]string{"", "fullmesh", strings.Repeat("x", 200)}[r.Intn(3)])
	case reflect.Slice:
		n := 0
		switch r.Intn(4) {
		case 0:
			return // nil
		case 1:
		default:
			n = 1 + r.Intn(3)
			if k := v.Type().Elem().Kind(); k != reflect.Struct && k != reflect.Slice && r.Intn(4) == 0 {
				n = 128 + r.Intn(8)
			}
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := range n {
			fill(r, s.Index(i))
		}
		v.Set(s)
	case reflect.Array:
		for i := range v.Len() {
			fill(r, v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			fill(r, v.Field(i))
		}
	case reflect.Pointer:
		// An engine's channel block is always set: the decoder rejects a
		// state without one.
		if v.Type().Elem().Kind() == reflect.Array || r.Intn(2) == 0 {
			p := reflect.New(v.Type().Elem())
			fill(r, p.Elem())
			v.Set(p)
		}
	default:
		panic("fill: no generator for kind " + v.Kind().String())
	}
}

// Over random states — nil and set Rebalance and Elastic sections, nil and
// empty slices, no engines, extreme and negative values — and real blobs
// of every kind the runtime writes, Marshal must write encoding/gob's
// bytes, and both decoders must read them back to the same state.
func TestCheckpointCodecMatchesGob(t *testing.T) {
	checkGobTypes(t)
	r := rand.New(rand.NewSource(1))
	for range 400 {
		checkCodec(t, randomState(r))
	}
	checkCodec(t, &CheckpointState{})
	checkCodec(t, &CheckpointState{Rebalance: &RebalanceState{}, Elastic: &ElasticState{}, Engines: []nmp.EngineState{{Channels: new([dram.Channels]dram.ChannelState)}}})
	for _, blob := range realBlobs(t) {
		ck, err := UnmarshalCheckpoint(blob)
		if err != nil {
			t.Fatal(err)
		}
		if want := gobReference(ck); !bytes.Equal(blob, want) {
			t.Fatalf("a %d-byte runtime blob differs from gob's %d bytes", len(blob), len(want))
		}
		checkCodec(t, ck)
	}
}

// The engine and DRAM state are fixed-size arrays, so a state of another
// shape can only come from the wire: a blob that encoding/gob reads, with
// a channel list, bank list, bank row or rank list of another length, or
// without the channel, bank or rank field, is corrupt, and
// UnmarshalCheckpoint rejects it.
func TestCheckpointCodecRejectsShapes(t *testing.T) {
	blob := realBlobs(t)[1]
	for _, tc := range []struct {
		name, want string
		edit       func(e *gobEngineState)
	}{
		{"7 channels", "Channels list of 7", func(e *gobEngineState) { e.Channels = e.Channels[:7] }},
		{"9 channels", "Channels list of 9", func(e *gobEngineState) { e.Channels = append(e.Channels, e.Channels[0]) }},
		{"1 bank row", "Banks list of 1", func(e *gobEngineState) { e.Channels[3].Banks = e.Channels[3].Banks[:1] }},
		{"3 bank rows", "Banks list of 3", func(e *gobEngineState) {
			e.Channels[3].Banks = append(e.Channels[3].Banks, e.Channels[3].Banks[0])
		}},
		{"a bank row of 15", "bank row of 15", func(e *gobEngineState) { e.Channels[5].Banks[1] = e.Channels[5].Banks[1][:15] }},
		{"a bank row of 17", "bank row of 17", func(e *gobEngineState) {
			e.Channels[5].Banks[0] = append(e.Channels[5].Banks[0], dram.BankState{})
		}},
		{"1 rank", "Ranks list of 1", func(e *gobEngineState) { e.Channels[7].Ranks = e.Channels[7].Ranks[:1] }},
		{"3 ranks", "Ranks list of 3", func(e *gobEngineState) {
			e.Channels[7].Ranks = append(e.Channels[7].Ranks, e.Channels[7].Ranks[0])
		}},
		{"no channels", "no Channels field", func(e *gobEngineState) { e.Channels = nil }},
		{"no banks", "no Banks field", func(e *gobEngineState) { e.Channels[2].Banks = nil }},
		{"no ranks", "no Ranks field", func(e *gobEngineState) { e.Channels[2].Ranks = nil }},
	} {
		m, err := gobMirror(blob)
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(&m.Engines[1])
		bad := mirrorBlob(m)
		if _, err := gobMirror(bad); err != nil {
			t.Fatalf("%s: encoding/gob rejects the blob: %v", tc.name, err)
		}
		if _, err := UnmarshalCheckpoint(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: UnmarshalCheckpoint returned %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// realBlobs returns blobs the runtime wrote on a small trace: one-shot
// checkpoints of a static and a rebalancing run at iteration 0 and mid-run,
// and an elastic run's recovery checkpoint.
func realBlobs(t testing.TB) [][]byte {
	reads := testReads(t, 3_000)
	tr := testTrace(t, reads, 32, 3)
	mid := len(tr.Iterations) / 2
	var blobs [][]byte
	for _, p := range []Partitioner{HashPartitioner{}, NewRebalancePartitioner(12, 1)} {
		cfg := DefaultConfig(2)
		cfg.Partitioner = p
		for _, at := range []int{0, mid} {
			blob, err := Checkpoint(reads, tr, cfg, at)
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
	}
	cfg := DefaultConfig(3)
	cfg.CheckpointEvery = 2
	s, err := open(reads, tr, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(mid)
	if s.run.ckpt == nil {
		t.Fatal("the elastic run captured nothing")
	}
	return append(blobs, bytes.Clone(s.run.ckpt.blob))
}

// Every field reachable from CheckpointState must reach the wire. For each
// leaf field, a state with only that field set — the slices and pointers
// on its path holding one element — must marshal to the value message gob
// writes, which sends the field; a field the codec does not name fails
// here by its path.
func TestCheckpointCodecNamesEveryField(t *testing.T) {
	checkGobTypes(t)
	leaves := 0
	var walk func(path string, typ reflect.Type, set func(ck *CheckpointState) reflect.Value)
	walk = func(path string, typ reflect.Type, at func(ck *CheckpointState) reflect.Value) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type, func(ck *CheckpointState) reflect.Value {
					return at(ck).Field(i)
				})
			}
			return
		case reflect.Pointer:
			walk(path, typ.Elem(), func(ck *CheckpointState) reflect.Value {
				v := at(ck)
				v.Set(reflect.New(typ.Elem()))
				return v.Elem()
			})
			return
		case reflect.Slice:
			walk(path+"[0]", typ.Elem(), func(ck *CheckpointState) reflect.Value {
				v := at(ck)
				v.Set(reflect.MakeSlice(typ, 1, 1))
				return v.Index(0)
			})
			return
		case reflect.Array:
			walk(fmt.Sprintf("%s[%d]", path, typ.Len()-1), typ.Elem(), func(ck *CheckpointState) reflect.Value {
				return at(ck).Index(typ.Len() - 1)
			})
			return
		}
		leaves++
		ck := new(CheckpointState)
		v := at(ck)
		switch typ.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(-300)
		case reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(300)
		case reflect.Float64:
			v.SetFloat(1.5)
		case reflect.String:
			v.SetString("x")
		default:
			t.Errorf("%s: the codec has no rule for kind %s", path, typ.Kind())
			return
		}
		blob, err := ck.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(valueMessage(t, blob), valueMessage(t, gobReference(ck))) {
			t.Errorf("CheckpointState%s: Marshal does not write it as gob does", path)
		}
	}
	walk("", reflect.TypeOf(CheckpointState{}), func(ck *CheckpointState) reflect.Value { return reflect.ValueOf(ck).Elem() })
	t.Logf("%d leaf fields", leaves)
}

// FuzzCheckpointCodec checks the hand codec against encoding/gob both
// ways. The body is a value message's content (type id and fields) after
// the pinned type section: whenever the hand decoder accepts it, gob must
// accept it with the same state. The seed draws a random state, which
// Marshal must write as gob does and both decoders must read back.
func FuzzCheckpointCodec(f *testing.F) {
	body := func(blob []byte) []byte {
		d := codec{dec: true, b: blob[len(checkpointMagic)+4+len(checkpointTypes):]}
		d.get()
		return d.b
	}
	for i, blob := range realBlobs(f) {
		f.Add(body(blob), int64(i))
	}
	r := rand.New(rand.NewSource(2))
	for i := range 8 {
		blob, err := randomState(r).Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body(blob), int64(100+i))
	}
	f.Add([]byte{}, int64(0))
	head := make([]byte, 0, len(checkpointMagic)+4+len(checkpointTypes)+9)
	head = append(head, checkpointMagic...)
	head = binary.LittleEndian.AppendUint32(head, CheckpointVersion)
	head = append(head, checkpointTypes...)
	f.Fuzz(func(t *testing.T, body []byte, seed int64) {
		blob := append(appendUint(bytes.Clone(head), uint64(len(body))), body...)
		if hand, err := decodeCheckpoint(blob[len(checkpointMagic)+4:]); err == nil {
			ref, err := gobDecode(blob)
			if err != nil {
				t.Fatalf("the hand decoder accepted a blob gob rejects: %v", err)
			}
			if !sameState(hand, ref) {
				t.Fatalf("the decoders disagree:\n%+v\nvs gob\n%+v", hand, ref)
			}
		}
		checkCodec(t, randomState(rand.New(rand.NewSource(seed))))
	})
}
