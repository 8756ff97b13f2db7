package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// encodeJSON is the reference encoder: what json.NewEncoder(w).Encode(v)
// writes.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// edgeFloats are the numbers where encoding/json's formatting rules switch.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 123456.789, -2.5e-3,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308, // subnormals
	math.MaxFloat64, -math.MaxFloat64,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, -math.Nextafter(1e-6, 0),
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, -math.Nextafter(1e21, 0),
	1e-7, 1.5e-9, 1e-10, 1e-100, 1e20, 1e22, 1e100, 123e45,
}

// edgeTags are tags that leave the plain-copy path: HTML-significant bytes,
// quotes and backslashes, control bytes, invalid UTF-8, the JavaScript line
// separators, multi-byte UTF-8 and DEL.
var edgeTags = []string{
	"", "obj-17", "a<b>c&d", `q"uote`, `back\slash`, "tab\tnl\ncr\r", "\x00\x01\x1f", "\x7f",
	"bad\xffutf8", "\xc3", "ls\u2028ps\u2029", "héllo", "日本", "\U0001F600", "</script>",
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1:
		return math.Float64frombits(rng.Uint64()) // any bit pattern, NaN and ±Inf included
	case 2:
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
	default:
		return rng.NormFloat64() * 40
	}
}

func randTag(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return edgeTags[rng.Intn(len(edgeTags))]
	}
	b := make([]byte, rng.Intn(12))
	for i := range b {
		if rng.Intn(4) == 0 {
			b[i] = byte(rng.Intn(256))
		} else {
			b[i] = byte(0x20 + rng.Intn(0x5f))
		}
	}
	return string(b)
}

func randTagSnapshot(rng *rand.Rand) TagSnapshot {
	n := int(rng.Int63() >> rng.Intn(64)) // every magnitude up to MaxInt64
	if rng.Intn(2) == 0 {
		n = -n
	}
	return TagSnapshot{
		Tag: randTag(rng), Found: rng.Intn(2) == 0,
		X: randFloat(rng), Y: randFloat(rng), Z: randFloat(rng),
		VarX: randFloat(rng), VarY: randFloat(rng), VarZ: randFloat(rng),
		NumParticles: n,
		Compressed:   rng.Intn(2) == 0,
	}
}

// checkEncode asserts that got is the reference encoding of v, or that both
// refused v.
func checkEncode(t *testing.T, v any, got []byte, gotErr error) {
	t.Helper()
	want, wantErr := encodeJSON(v)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%#v: error %v, encoding/json %v", v, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%#v:\n got  %q\n want %q", v, got, want)
	}
}

// TestSnapshotEncodeByteIdentity is the codec's contract on the write side:
// for random TagSnapshot and HistorySnapshot values the encoder writes
// exactly json.NewEncoder's bytes (or refuses exactly what it refuses), and
// the decoder reads them back to json.Unmarshal's value.
func TestSnapshotEncodeByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		ts := randTagSnapshot(rng)
		got, err := AppendTagSnapshot(nil, &ts)
		checkEncode(t, ts, got, err)
		if err == nil {
			checkDecode(t, got)
		}
	}
	for _, tag := range edgeTags {
		for _, f := range edgeFloats {
			ts := TagSnapshot{Tag: tag, X: f, Y: -f, VarZ: f}
			got, err := AppendTagSnapshot(nil, &ts)
			checkEncode(t, ts, got, err)
			checkDecode(t, got)
		}
	}
	for i := 0; i < 3000; i++ {
		h := HistorySnapshot{Epoch: rng.Intn(1<<20) - 1000}
		switch rng.Intn(4) {
		case 0: // nil Objects
		case 1:
			h.Objects = []TagSnapshot{}
		default:
			for n := rng.Intn(8); n > 0; n-- {
				h.Objects = append(h.Objects, randTagSnapshot(rng))
			}
		}
		got, err := AppendHistorySnapshot([]byte("prefix"), &h)
		if !bytes.HasPrefix(got, []byte("prefix")) {
			t.Fatalf("%#v: dst prefix lost: %q", h, got)
		}
		checkEncode(t, h, got[len("prefix"):], err)
		if err == nil {
			checkDecode(t, got[len("prefix"):])
		} else if string(got) != "prefix" {
			t.Fatalf("refused %#v but appended %q", h, got)
		}
	}
}

// TestHistoryEncoderMatchesAppend pins the object-at-a-time encoder the server
// uses to AppendHistorySnapshot, including an empty list and a refused value
// part way through.
func TestHistoryEncoderMatchesAppend(t *testing.T) {
	objs := []TagSnapshot{{Tag: "a", X: 1}, {Tag: "b<", Y: 2e-9, NumParticles: 5}, {Tag: "c", Compressed: true}}
	for n := 0; n <= len(objs); n++ {
		e := NewHistoryEncoder([]byte("x"), 42)
		for i := range objs[:n] {
			e.Add(&objs[i])
		}
		got, err := e.Finish()
		want, _ := AppendHistorySnapshot([]byte("x"), &HistorySnapshot{Epoch: 42, Objects: objs[:n]})
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d objects: %q, %v; want %q", n, got, err, want)
		}
	}
	e := NewHistoryEncoder([]byte("x"), 1)
	e.Add(&objs[0])
	e.Add(&TagSnapshot{X: math.NaN()})
	e.Add(&objs[1])
	if got, err := e.Finish(); err == nil || string(got) != "x" {
		t.Fatalf("NaN object: %q, %v; want dst back and an error", got, err)
	}
}

// checkDecode asserts that both decoders agree with json.Unmarshal on data:
// the same value, and an error exactly when it errors.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var wantT, gotT TagSnapshot
	wantErr := json.Unmarshal(data, &wantT)
	gotErr := DecodeTagSnapshot(data, &gotT)
	if (gotErr != nil) != (wantErr != nil) || !reflect.DeepEqual(gotT, wantT) {
		t.Fatalf("TagSnapshot from %q:\n got  %#v, %v\n want %#v, %v", data, gotT, gotErr, wantT, wantErr)
	}
	var wantH, gotH HistorySnapshot
	wantErr = json.Unmarshal(data, &wantH)
	gotErr = DecodeHistorySnapshot(data, &gotH)
	if (gotErr != nil) != (wantErr != nil) || !reflect.DeepEqual(gotH, wantH) {
		t.Fatalf("HistorySnapshot from %q:\n got  %#v, %v\n want %#v, %v", data, gotH, gotErr, wantH, wantErr)
	}
}

// decodeSeeds are canonical bodies and the variants the decoder must hand to
// encoding/json.
func decodeSeeds() [][]byte {
	tag := `{"tag":"obj-1","found":true,"x":1.5,"y":-2,"z":3e-7,"var_x":0.25,"var_y":1e+21,"var_z":0,"num_particles":200,"compressed":false}`
	hist := `{"epoch":7,"objects":[` + tag + `,{"tag":"obj-2","found":true,"x":0,"y":0,"z":0,"var_x":0,"var_y":0,"var_z":0,"num_particles":0,"compressed":true}]}`
	seeds := []string{
		tag, tag + "\n", hist, hist + "\n",
		`{"epoch":0,"objects":[]}` + "\n", `{"epoch":0,"objects":null}` + "\n",
		// Whitespace, including \v and \f, which JSON does not allow.
		"\n" + tag, tag + " \n", tag + "\n\n", "{ \"epoch\":7,\"objects\":[]}", hist + "\v", "\f" + hist, tag + "\r\n",
		// Reordered, unknown, case-varied and missing keys.
		`{"found":true,"tag":"a","x":1}`, `{"objects":[],"epoch":3}`, `{"epoch":1,"objects":[],"more":1}`,
		`{"TAG":"a","Found":true,"X":2}`, `{"Epoch":3,"Objects":[{"Tag":"z"}]}`, `{"epoch":2}`, `{}`,
		`{"tag":"a","found":true,"x":1,"y":1,"z":1,"var_x":1,"var_y":1,"var_z":1,"num_particles":1,"compressed":false,"tag":"b"}`,
		// Escaped and non-ASCII tags.
		`{"tag":"a\u003cb","found":true,"x":1,"y":1,"z":1,"var_x":1,"var_y":1,"var_z":1,"num_particles":1,"compressed":false}`,
		`{"tag":"\"\\\/\b\f\n\r\t","found":false,"x":0,"y":0,"z":0,"var_x":0,"var_y":0,"var_z":0,"num_particles":0,"compressed":false}`,
		"{\"tag\":\"h\xc3\xa9\",\"found\":true,\"x\":1,\"y\":1,\"z\":1,\"var_x\":1,\"var_y\":1,\"var_z\":1,\"num_particles\":1,\"compressed\":false}",
		"{\"tag\":\"bad\xff\",\"found\":true}", "{\"tag\":\"ctl\x01\",\"found\":true}",
		// Numbers: leading zero, out of range, negative zero, fractions and
		// exponents where an int is wanted, malformed.
		`{"epoch":01,"objects":[]}`, `{"epoch":-0,"objects":[]}`, `{"epoch":1.0,"objects":[]}`, `{"epoch":1e2,"objects":[]}`,
		`{"epoch":99999999999999999999,"objects":[]}`, `{"epoch":-,"objects":[]}`,
		`{"tag":"a","found":true,"x":1e400,"y":1,"z":1,"var_x":1,"var_y":1,"var_z":1,"num_particles":1,"compressed":false}`,
		`{"tag":"a","found":true,"x":-0,"y":1E5,"z":1.,"var_x":.5,"var_y":+1,"var_z":0x10,"num_particles":1,"compressed":false}`,
		`{"tag":"a","found":true,"x":1e-400,"y":-0.0,"z":1e+5,"var_x":1.25e-3,"var_y":NaN,"var_z":1,"num_particles":1,"compressed":false}`,
		`{"tag":"a","found":true,"x":1,"y":1,"z":1,"var_x":1,"var_y":1,"var_z":1,"num_particles":1.5,"compressed":false}`,
		`{"tag":"a","found":tru,"x":1}`, `{"tag":"a","found":null,"x":null}`, `{"tag":1}`, `{"epoch":"1"}`,
		// Trailing garbage, truncation, other top-level values.
		tag + "x", hist + "]", hist[:len(hist)-3], tag[:40], `{"epoch":0,"objects":[]`, `null`, `[]`, `""`, ``,
		`{"epoch":0,"objects":[,]}`, `{"epoch":0,"objects":[` + tag + `,]}`, `{"epoch":0,"objects":[1]}`,
	}
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// TestSnapshotDecodeSeeds runs the fuzz property over its seed corpus, so
// plain `go test` covers every variant.
func TestSnapshotDecodeSeeds(t *testing.T) {
	for _, s := range decodeSeeds() {
		checkDecode(t, s)
	}
}

// FuzzSnapshotDecode: for any input the snapshot decoders return
// json.Unmarshal's value, and an error exactly when it does.
func FuzzSnapshotDecode(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}
