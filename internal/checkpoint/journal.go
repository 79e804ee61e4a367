package checkpoint

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/config"
	"repro/internal/obs"
)

// Version is the journal format version written into (and required of)
// the header frame.
const Version = 1

// magic identifies a journal file; anything else is not a journal.
var magic = []byte("BDJ1")

// maxFrame bounds a single frame's payload so a corrupt length field
// cannot drive a multi-gigabyte allocation during recovery.
const maxFrame = 16 << 20

var (
	// ErrCorrupt marks a file that is not a readable journal at all:
	// wrong magic, unreadable header, or unsupported version. (A torn
	// record tail is NOT corruption — recovery handles it silently.)
	ErrCorrupt = errors.New("checkpoint: corrupt journal")
	// ErrConfigMismatch marks a journal whose header digest does not
	// match the caller's configuration: resuming from it would merge
	// results computed under different knobs, so Open refuses.
	ErrConfigMismatch = errors.New("checkpoint: journal config mismatch")
)

// Meta is the identity a journal is bound to, stored in the header
// frame and validated on every Open.
type Meta struct {
	// Tool names the creating command ("replicate", "biodegd", ...).
	Tool string `json:"tool"`
	// Label names what the journal covers ("session", ...).
	Label string `json:"label"`
	// ConfigDigest binds the journal to the configuration that produced
	// its records (see ConfigDigest); Open rejects a mismatch.
	ConfigDigest string `json:"config_digest"`
}

// Header is the decoded header frame.
type Header struct {
	Version int `json:"version"`
	Meta
}

// Record is one committed (key, value) pair.
type Record struct {
	Key   string          `json:"k"`
	Value json.RawMessage `json:"v"`
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// Records is the number of valid records recovered.
	Records int
	// TruncatedBytes counts torn-tail bytes dropped (0 for a clean
	// journal); the file is truncated back to the last valid frame.
	TruncatedBytes int64
}

// ConfigDigest folds a set of configuration knobs into the short
// deterministic digest stored in (and required of) a journal header:
// sorted k=v lines, SHA-256, first 16 hex characters.
func ConfigDigest(kv map[string]string) string {
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, kv[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// PointID builds a deterministic record key from its parts —
// conventionally the experiment, the grid coordinates, and the knobs
// that shape the value, e.g. PointID("alu", "organic", "wire", "n17").
func PointID(parts ...string) string { return strings.Join(parts, "/") }

// Journal is an open checkpoint journal: a concurrency-safe map of
// committed records backed by the crash-safe file. Create with Open.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	recs   map[string][]byte
	closed bool
}

// frame renders one length+CRC framed payload.
func frame(payload []byte) []byte {
	b := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	copy(b[8:], payload)
	return b
}

// Decode parses raw journal bytes: the header, every valid record, and
// how much torn tail was dropped. It never panics on arbitrary input.
// A wrong magic, unreadable header frame, or unsupported version is
// ErrCorrupt; a damaged record frame just ends the scan — the records
// before it are the recovered prefix.
func Decode(data []byte) (Header, []Record, Recovery, error) {
	var hdr Header
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic) {
		return hdr, nil, Recovery{}, fmt.Errorf("%w: missing magic", ErrCorrupt)
	}
	off := int64(len(magic))
	payload, next, ok := readFrame(data, off)
	if !ok {
		return hdr, nil, Recovery{}, fmt.Errorf("%w: unreadable header frame", ErrCorrupt)
	}
	if err := json.Unmarshal(payload, &hdr); err != nil {
		return hdr, nil, Recovery{}, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if hdr.Version != Version {
		return hdr, nil, Recovery{}, fmt.Errorf("%w: journal version %d, want %d", ErrCorrupt, hdr.Version, Version)
	}
	off = next
	var recs []Record
	for {
		payload, next, ok := readFrame(data, off)
		if !ok {
			break
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil || r.Key == "" {
			// A frame that passes its CRC but does not decode is not a
			// torn append — treat it like one anyway: stop at the last
			// trustworthy record rather than guess.
			break
		}
		recs = append(recs, r)
		off = next
	}
	return hdr, recs, Recovery{Records: len(recs), TruncatedBytes: int64(len(data)) - off}, nil
}

// readFrame reads the frame at off, returning its payload and the
// offset after it; ok is false for a short, oversized, or
// CRC-mismatched frame.
func readFrame(data []byte, off int64) (payload []byte, next int64, ok bool) {
	if off < 0 || off+8 > int64(len(data)) {
		return nil, 0, false
	}
	n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if n > maxFrame || off+8+n > int64(len(data)) {
		return nil, 0, false
	}
	payload = data[off+8 : off+8+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, off + 8 + n, true
}

// Open opens (creating if absent) the journal at path and binds it to
// meta. A new journal is created atomically: magic and header go to a
// temp file in the same directory, fsynced, then renamed into place.
// An existing journal is recovered — valid records loaded, any torn
// tail truncated — and rejected with ErrConfigMismatch when its header
// digest differs from meta's, or ErrCorrupt when it is not a journal
// at all. The recovery is visible as a "checkpoint.load" span.
func Open(ctx context.Context, path string, meta Meta) (*Journal, Recovery, error) {
	_, sp := obs.Start(ctx, "checkpoint.load", obs.KV("path", path))
	defer sp.End()
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return nil, Recovery{}, fmt.Errorf("checkpoint: %w", err)
	}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		if err := create(path, meta); err != nil {
			return nil, Recovery{}, err
		}
		data, err = os.ReadFile(path)
		if err != nil {
			return nil, Recovery{}, fmt.Errorf("checkpoint: %w", err)
		}
	case err != nil:
		return nil, Recovery{}, fmt.Errorf("checkpoint: %w", err)
	}
	hdr, recs, rec, err := Decode(data)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("%w (%s): discard or move it aside to start fresh", err, path)
	}
	if hdr.ConfigDigest != meta.ConfigDigest {
		return nil, Recovery{}, fmt.Errorf(
			"%w: journal %s was written under config digest %s, current config digests to %s: finish or discard the old run before changing knobs",
			ErrConfigMismatch, path, hdr.ConfigDigest, meta.ConfigDigest)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o666)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("checkpoint: %w", err)
	}
	validEnd := int64(len(data)) - rec.TruncatedBytes
	if rec.TruncatedBytes > 0 {
		// Drop the torn tail so new commits append to a clean end; a
		// frame appended after garbage would be unreachable forever.
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, Recovery{}, fmt.Errorf("checkpoint: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, Recovery{}, fmt.Errorf("checkpoint: %w", err)
		}
	}
	if _, err := f.Seek(validEnd, 0); err != nil {
		f.Close()
		return nil, Recovery{}, fmt.Errorf("checkpoint: %w", err)
	}
	j := &Journal{f: f, recs: make(map[string][]byte, len(recs))}
	for _, r := range recs {
		if _, ok := j.recs[r.Key]; !ok { // first commit wins
			j.recs[r.Key] = r.Value
		}
	}
	sp.Set("records", strconv.Itoa(rec.Records))
	sp.Set("truncated_bytes", strconv.FormatInt(rec.TruncatedBytes, 10))
	obs.Add(obs.StageCheckpointLoad, 1)
	return j, rec, nil
}

// create writes a fresh journal (magic + header frame) through a temp
// file and an atomic rename.
func create(path string, meta Meta) error {
	payload, err := json.Marshal(Header{Version: Version, Meta: meta})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return WriteFileAtomic(path, append(append([]byte{}, magic...), frame(payload)...))
}

// WriteFileAtomic writes data to path with crash-safe discipline: temp
// file in the same directory, fsync, rename over path, best-effort
// directory fsync. Readers see either the old content or all of the
// new one, never a torn mix.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // best-effort durability of the rename
		d.Close()
	}
	return nil
}

// Len reports the number of committed keys.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.recs)
}

// Lookup returns the committed value for key. The returned bytes are
// shared — callers must not mutate them.
func (j *Journal) Lookup(key string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v, ok := j.recs[key]
	return v, ok
}

// Commit appends one (key, value) record and fsyncs before returning,
// so a crash after Commit never loses the point. Committing a key the
// journal already holds is a no-op (the first value wins — under
// deterministic execution both are identical anyway). The write is a
// "checkpoint.commit" span and a fault-injection site
// ("checkpoint:commit", fired between the append and the fsync so
// kinds=kill chaos crashes mid-write, exercising torn-tail recovery).
func (j *Journal) Commit(ctx context.Context, key string, value []byte) error {
	if key == "" {
		return errors.New("checkpoint: empty key")
	}
	payload, err := json.Marshal(Record{Key: key, Value: json.RawMessage(value)})
	if err != nil {
		return fmt.Errorf("checkpoint: encoding %q: %w", key, err)
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("checkpoint: record %q exceeds %d bytes", key, maxFrame)
	}
	_, sp := obs.Start(ctx, "checkpoint.commit", obs.KV("key", key))
	defer sp.End()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("checkpoint: journal closed")
	}
	if _, ok := j.recs[key]; ok {
		return nil
	}
	if _, err := j.f.Write(frame(payload)); err != nil {
		return fmt.Errorf("checkpoint: appending %q: %w", key, err)
	}
	if err := config.Get(ctx).Faults.Inject(ctx, "checkpoint:commit:"+key); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: fsync: %w", err)
	}
	j.recs[key] = append([]byte(nil), value...)
	obs.Add(obs.StageCheckpointCommit, 1)
	return nil
}

// Close releases the journal's file handle. Committed records are
// already durable (Commit fsyncs); Close only ends the session.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}
