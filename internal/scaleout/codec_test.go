package scaleout

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nmppak/internal/nmp"
)

// gobFirst makes CheckpointState this test binary's first gob use, before
// any test runs: gob numbers types from a process-wide counter, so the
// reference encoder then writes checkpointTypes byte for byte whatever
// other tests encode, in whatever order -shuffle runs them.
var gobFirst = gobReference(&CheckpointState{})

// gobReference is the blob encoding/gob writes for ck: magic, version tag
// and a fresh encoder's stream.
func gobReference(ck *CheckpointState) []byte {
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	binary.Write(&buf, binary.LittleEndian, ck.Version)
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// gobDecode decodes a blob's payload with encoding/gob, rejecting
// trailing bytes.
func gobDecode(blob []byte) (*CheckpointState, error) {
	r := bytes.NewReader(blob[len(checkpointMagic)+4:])
	ck := new(CheckpointState)
	if err := gob.NewDecoder(r).Decode(ck); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", r.Len())
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

// checkGobTypes checks that gob writes checkpointTypes for
// CheckpointState in this binary.
func checkGobTypes(t testing.TB) {
	t.Helper()
	if !strings.HasPrefix(string(gobFirst[len(checkpointMagic)+4:]), checkpointTypes) {
		t.Errorf("encoding/gob's type section for CheckpointState is not checkpointTypes: a type reachable from it changed, " +
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
// scalars, past one count byte; pointers nil or set.
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
		if r.Intn(2) == 0 {
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
	checkCodec(t, &CheckpointState{Rebalance: &RebalanceState{}, Elastic: &ElasticState{}, Engines: []nmp.EngineState{{}}})
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
