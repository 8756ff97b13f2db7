package checkpoint

import (
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestCodecRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Section("head")
	e.Uvarint(0)
	e.Uvarint(1 << 62)
	e.Varint(-5)
	e.Int(42)
	e.Bool(true)
	e.Bool(false)
	e.Float64(math.Pi)
	e.Float64(math.Copysign(0, -1))
	e.Float64(math.Inf(-1))
	e.String("")
	e.String("tag-000123")
	e.Vec3(geom.Vec3{X: 1.5, Y: -2, Z: 1e-300})
	e.Pose(geom.Pose{Pos: geom.Vec3{X: 9}, Phi: -0.25})
	e.BBox(geom.BBox{Min: geom.Vec3{X: -1}, Max: geom.Vec3{Y: 7}})
	e.Float64s([]float64{0.25, -0.5, math.NaN()})
	e.Section("tail")

	d := NewDecoder(e.Bytes())
	d.Section("head")
	if got := d.Uvarint(); got != 0 {
		t.Fatalf("uvarint: got %d", got)
	}
	if got := d.Uvarint(); got != 1<<62 {
		t.Fatalf("uvarint: got %d", got)
	}
	if got := d.Varint(); got != -5 {
		t.Fatalf("varint: got %d", got)
	}
	if got := d.Int(); got != 42 {
		t.Fatalf("int: got %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools corrupted")
	}
	if got := d.Float64(); got != math.Pi {
		t.Fatalf("float: got %v", got)
	}
	if got := d.Float64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("negative zero not preserved: got %v", got)
	}
	if got := d.Float64(); !math.IsInf(got, -1) {
		t.Fatalf("-inf not preserved: got %v", got)
	}
	if got := d.String(); got != "" {
		t.Fatalf("empty string: got %q", got)
	}
	if got := d.String(); got != "tag-000123" {
		t.Fatalf("string: got %q", got)
	}
	if got := d.Vec3(); got != (geom.Vec3{X: 1.5, Y: -2, Z: 1e-300}) {
		t.Fatalf("vec3: got %v", got)
	}
	if got := d.Pose(); got != (geom.Pose{Pos: geom.Vec3{X: 9}, Phi: -0.25}) {
		t.Fatalf("pose: got %v", got)
	}
	if got := d.BBox(); got.Min != (geom.Vec3{X: -1}) || got.Max != (geom.Vec3{Y: 7}) {
		t.Fatalf("bbox: got %v", got)
	}
	fs := d.Float64s()
	if len(fs) != 3 || fs[0] != 0.25 || fs[1] != -0.5 || !math.IsNaN(fs[2]) {
		t.Fatalf("float64s: got %v", fs)
	}
	d.Section("tail")
	if d.Err() != nil {
		t.Fatalf("decode error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining: %d bytes left", d.Remaining())
	}
}

func TestDecoderStickyErrors(t *testing.T) {
	d := NewDecoder([]byte{0x05}) // string length 5, no bytes follow
	if got := d.String(); got != "" || d.Err() == nil {
		t.Fatalf("want sticky error, got %q err=%v", got, d.Err())
	}
	// Every later read is a safe zero value.
	if d.Float64() != 0 || d.Int() != 0 || d.Bool() {
		t.Fatal("post-error reads not zero")
	}
}

func TestDecoderSectionMismatch(t *testing.T) {
	e := NewEncoder()
	e.Section("alpha")
	d := NewDecoder(e.Bytes())
	d.Section("beta")
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "alpha") {
		t.Fatalf("want section mismatch naming the found marker, got %v", d.Err())
	}
}

func TestDecoderSliceLenGuard(t *testing.T) {
	e := NewEncoder()
	e.Uvarint(1 << 40) // absurd element count
	d := NewDecoder(e.Bytes())
	if n := d.SliceLen(8); n != 0 || d.Err() == nil {
		t.Fatalf("huge slice length not rejected: n=%d err=%v", n, d.Err())
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := Snapshot{
		Version:     Version,
		Fingerprint: 0xfeedface,
		Epoch:       37,
		WALSegment:  5,
		Payload:     []byte("engine-state-bytes"),
	}
	path, err := Write(dir, snap)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if filepath.Base(path) != FileName(37) {
		t.Fatalf("unexpected file name %s", path)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Fingerprint != snap.Fingerprint || got.Epoch != snap.Epoch ||
		got.WALSegment != snap.WALSegment || string(got.Payload) != string(snap.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, snap)
	}
}

// TestDecodeVersions pins the version window: every payload version up to
// Version decodes and reports its version to the payload decoder, anything
// else is refused before a payload byte is read.
func TestDecodeVersions(t *testing.T) {
	// reencode is Encode with the header's version chosen by the caller.
	reencode := func(s Snapshot, v uint64) []byte {
		e := NewEncoder()
		e.Raw([]byte(Magic))
		e.Uvarint(v)
		e.Uvarint(s.Fingerprint)
		e.Varint(int64(s.Epoch))
		e.Uvarint(s.WALSegment)
		e.Uvarint(uint64(len(s.Payload)))
		e.Raw(s.Payload)
		e.Uvarint(uint64(crc32.Checksum(e.Bytes(), crcTable)))
		return e.Bytes()
	}
	if got, want := reencode(Snapshot{Epoch: 4, Payload: []byte("p")}, Version), Encode(Snapshot{Epoch: 4, Payload: []byte("p")}); string(got) != string(want) {
		t.Fatal("the test's encoder drifted from Encode")
	}
	for v := uint64(1); v <= Version; v++ {
		snap, err := Decode(reencode(Snapshot{Epoch: 4, Payload: []byte("p")}, v))
		if err != nil {
			t.Fatalf("version %d refused: %v", v, err)
		}
		if got := snap.PayloadDecoder().Version(); got != v {
			t.Fatalf("payload decoder reports version %d, want %d", got, v)
		}
	}
	for _, v := range []uint64{0, Version + 1} {
		if _, err := Decode(reencode(Snapshot{Epoch: 4, Payload: []byte("p")}, v)); err == nil {
			t.Fatalf("version %d accepted", v)
		}
	}
	if NewDecoder(nil).Version() != Version {
		t.Fatal("a bare payload decoder does not default to the current version")
	}
}

func TestCorruptionDetected(t *testing.T) {
	data := Encode(Snapshot{Version: Version, Epoch: 1, Payload: []byte("abcdef")})
	for _, i := range []int{0, len(Magic) + 1, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0xff
		if _, err := Decode(bad); err == nil {
			t.Fatalf("flip at byte %d not detected", i)
		}
	}
	for _, cut := range []int{0, 3, len(Magic), len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes not detected", cut)
		}
	}
}

func TestLatestSkipsCorruptAndPrunes(t *testing.T) {
	dir := t.TempDir()
	for _, ep := range []int{3, 7, 12} {
		if _, err := Write(dir, Snapshot{Version: Version, Epoch: ep, Payload: []byte{byte(ep)}}); err != nil {
			t.Fatalf("write %d: %v", ep, err)
		}
	}
	// Corrupt the newest file: Latest must fall back to epoch 7.
	newest := filepath.Join(dir, FileName(12))
	if err := os.WriteFile(newest, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	path, snap, ok, err := Latest(dir)
	if err != nil || !ok {
		t.Fatalf("latest: ok=%v err=%v", ok, err)
	}
	if snap.Epoch != 7 || filepath.Base(path) != FileName(7) {
		t.Fatalf("latest picked %s (epoch %d), want epoch 7", path, snap.Epoch)
	}

	if err := Prune(dir, 1); err != nil {
		t.Fatalf("prune: %v", err)
	}
	files, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || filepath.Base(files[0]) != FileName(12) {
		t.Fatalf("prune kept %v, want only the newest name", files)
	}

	// Empty / missing directories are not errors for Latest.
	if _, _, ok, err := Latest(filepath.Join(dir, "missing")); ok || err != nil {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFileAtomic(dir, "m.json", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "m.json"))
	if err != nil || string(got) != "v1" {
		t.Fatalf("read back %q (err %v)", got, err)
	}
	// Overwrite atomically: the new content replaces the old in one rename.
	if err := WriteFileAtomic(dir, "m.json", []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(filepath.Join(dir, "m.json"))
	if string(got) != "v2-longer" {
		t.Fatalf("after overwrite: %q", got)
	}
	// No temp droppings survive a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want just the file: %v", len(entries), entries)
	}
	// A missing directory fails loudly instead of writing somewhere else.
	if err := WriteFileAtomic(filepath.Join(dir, "nope"), "m.json", []byte("x")); err == nil {
		t.Fatal("write into missing dir succeeded")
	}
}
