package checkpoint

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/rfid/wire"
)

// Magic identifies a checkpoint file; the trailing digits are the format
// generation and change only on incompatible layout changes.
const Magic = "RFCKPT01"

// Version is the current checkpoint payload version. Decode accepts every
// version from 1 up to it and refuses newer ones, so a binary confronted with
// a file from a later format fails loudly instead of misreading it; payload
// decoders that changed layout tell the versions apart through
// Decoder.Version. Version 2 stores the runner's time-travel history as
// per-object version chains where version 1 stored a full snapshot of every
// retained epoch.
const Version = 2

// Snapshot is one durable checkpoint: the opaque engine payload plus the
// header metadata recovery needs before decoding a single payload byte.
type Snapshot struct {
	// Version is the payload format version (Version when encoding).
	Version uint64
	// Fingerprint is a hash of the engine configuration that produced the
	// payload. Restore refuses a payload whose fingerprint differs from the
	// running configuration — restoring particle state into a differently
	// parameterized engine would silently diverge instead of failing.
	Fingerprint uint64
	// Epoch is the last epoch the checkpointed state has fully processed.
	Epoch int
	// WALSegment is the first write-ahead-log segment that is NOT reflected
	// in the payload: recovery restores the snapshot, then replays WAL
	// segments >= WALSegment.
	WALSegment uint64
	// Payload is the engine state, encoded by the components' SaveState
	// methods.
	Payload []byte
}

// Encode serializes a snapshot into the on-disk format:
//
//	magic(8) | version | fingerprint | epoch | walSegment | len(payload)
//	| payload | crc32c(everything before the crc)
func Encode(s Snapshot) []byte {
	var e wire.Encoder
	e.Raw([]byte(Magic))
	e.Uvarint(Version)
	e.Uvarint(s.Fingerprint)
	e.Varint(int64(s.Epoch))
	e.Uvarint(s.WALSegment)
	e.Uvarint(uint64(len(s.Payload)))
	e.Raw(s.Payload)
	e.Uvarint(uint64(crc32.Checksum(e.Bytes(), crcTable)))
	return e.Bytes()
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// PayloadDecoder returns a decoder over the snapshot's payload that reports
// the snapshot's payload version.
func (s Snapshot) PayloadDecoder() *Decoder {
	d := NewDecoder(s.Payload)
	d.version = s.Version
	return d
}

// Decode parses and validates the on-disk format. It never panics on
// arbitrary input: truncation, bad magic, unknown versions and checksum
// mismatches all surface as errors (the FuzzCheckpointDecode target pins
// this).
func Decode(data []byte) (Snapshot, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return Snapshot{}, fmt.Errorf("checkpoint: bad magic (not a checkpoint file)")
	}
	var d wire.Decoder
	d.Reset(data[len(Magic):])
	var s Snapshot
	s.Version = d.Uvarint()
	if d.Err() == nil && (s.Version < 1 || s.Version > Version) {
		return Snapshot{}, fmt.Errorf("checkpoint: unsupported version %d (want 1..%d)", s.Version, Version)
	}
	s.Fingerprint = d.Uvarint()
	s.Epoch = int(d.Varint())
	s.WALSegment = d.Uvarint()
	n := d.SliceLen(1)
	if d.Err() != nil {
		return Snapshot{}, d.Err()
	}
	start := len(data) - d.Remaining()
	crcEnd := start + n
	s.Payload = append([]byte(nil), data[start:crcEnd]...)
	d.Reset(data[crcEnd:])
	want := d.Uvarint()
	if d.Err() != nil {
		return Snapshot{}, d.Err()
	}
	if got := uint64(crc32.Checksum(data[:crcEnd], crcTable)); got != want {
		return Snapshot{}, fmt.Errorf("checkpoint: crc mismatch (file %#x, computed %#x)", want, got)
	}
	return s, nil
}

// FileName returns the canonical file name of the checkpoint covering the
// given epoch. Zero-padding keeps lexicographic and numeric order aligned, so
// directory scans need no parsing to find the newest file.
func FileName(epoch int) string {
	if epoch < 0 {
		epoch = 0
	}
	return fmt.Sprintf("checkpoint-%016d.ckpt", epoch)
}

const fileExt = ".ckpt"

// Write atomically persists a snapshot into dir under FileName(s.Epoch)
// through WriteFileAtomic, so a crash mid-write leaves the previous
// checkpoint untouched and never a torn file under the canonical name.
func Write(dir string, s Snapshot) (string, error) {
	name := FileName(s.Epoch)
	if err := WriteFileAtomic(dir, name, Encode(s)); err != nil {
		return "", err
	}
	return filepath.Join(dir, name), nil
}

// SyncDir fsyncs a directory so a rename survives power loss; best-effort
// (some filesystems reject directory fsync). Sibling durability layers (the
// serving layer's session manifests) share it, so the crash-safe directory
// handling lives in exactly one place.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// WriteFileAtomic persists data under dir/name: the bytes go to a temp file
// first, are fsynced, renamed into place and the directory is fsynced. A
// crash mid-write leaves either the previous file or no file — never a torn
// one — and once the call returns the bytes survive power loss.
func WriteFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+"-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: close temp: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: rename into place: %w", err)
	}
	SyncDir(dir)
	return nil
}

// Load reads and decodes one checkpoint file.
func Load(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	return Decode(data)
}

// List returns the checkpoint files in dir, oldest first.
func List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, ent := range entries {
		name := ent.Name()
		if !ent.IsDir() && strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, fileExt) {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// Latest loads the newest valid checkpoint in dir, skipping files that fail
// to decode (a torn or corrupted newest file falls back to its predecessor —
// exactly the behaviour crash recovery needs). ok is false when the directory
// holds no valid checkpoint at all.
func Latest(dir string) (path string, s Snapshot, ok bool, err error) {
	files, err := List(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return "", Snapshot{}, false, nil
		}
		return "", Snapshot{}, false, err
	}
	for i := len(files) - 1; i >= 0; i-- {
		snap, err := Load(files[i])
		if err != nil {
			continue // corrupt or torn; try the previous one
		}
		return files[i], snap, true, nil
	}
	return "", Snapshot{}, false, nil
}

// Prune removes all but the newest keep checkpoint files from dir. It never
// removes the newest file regardless of keep.
func Prune(dir string, keep int) error {
	if keep < 1 {
		keep = 1
	}
	files, err := List(dir)
	if err != nil {
		return err
	}
	if len(files) <= keep {
		return nil
	}
	for _, f := range files[:len(files)-keep] {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	return nil
}
