package checkpoint

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/obs"
)

var testMeta = Meta{
	Tool:         "test",
	Label:        "unit",
	ConfigDigest: ConfigDigest(map[string]string{"faults": "", "partial": "false"}),
}

func openT(t *testing.T, path string, meta Meta) (*Journal, Recovery) {
	t.Helper()
	j, rec, err := Open(context.Background(), path, meta)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { j.Close() })
	return j, rec
}

func TestCommitReopenReplaysIdentically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bdj")
	ctx := context.Background()

	j, rec := openT(t, path, testMeta)
	if rec.Records != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("fresh journal recovery = %+v, want empty", rec)
	}
	commits := obs.Count(obs.StageCheckpointCommit)
	want := map[string]string{
		"alu/organic/wire/n1": `{"freq":1234.5678901234567}`,
		"alu/organic/wire/n2": `{"freq":0.1}`,
		"experiment/fig12":    `[{"rows":["a","b"]}]`,
	}
	for k, v := range want {
		if err := j.Commit(ctx, k, []byte(v)); err != nil {
			t.Fatalf("Commit(%s): %v", k, err)
		}
	}
	if d := obs.Count(obs.StageCheckpointCommit) - commits; d != int64(len(want)) {
		t.Errorf("checkpoint.commit grew by %d, want %d", d, len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	commits = obs.Count(obs.StageCheckpointCommit)
	j2, rec2 := openT(t, path, testMeta)
	if rec2.Records != len(want) || rec2.TruncatedBytes != 0 {
		t.Fatalf("reopen recovery = %+v, want %d clean records", rec2, len(want))
	}
	for k, v := range want {
		got, ok := j2.Lookup(k)
		if !ok {
			t.Fatalf("Lookup(%s) missing after reopen", k)
		}
		if string(got) != v {
			t.Errorf("Lookup(%s) = %s, want %s (must be byte-identical)", k, got, v)
		}
	}
	if j2.Len() != len(want) {
		t.Errorf("Len = %d after reopen, want %d", j2.Len(), len(want))
	}
	if d := obs.Count(obs.StageCheckpointCommit) - commits; d != 0 {
		t.Errorf("reopen and lookups grew checkpoint.commit by %d, want 0", d)
	}
}

func TestCommitDedupesKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bdj")
	ctx := context.Background()
	j, _ := openT(t, path, testMeta)
	if err := j.Commit(ctx, "k", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	size1 := fileSize(t, path)
	// Re-committing the same key must not grow the file or change the
	// stored value (first commit wins).
	if err := j.Commit(ctx, "k", []byte(`2`)); err != nil {
		t.Fatal(err)
	}
	if size2 := fileSize(t, path); size2 != size1 {
		t.Errorf("duplicate commit grew the journal: %d -> %d bytes", size1, size2)
	}
	if v, _ := j.Lookup("k"); string(v) != "1" {
		t.Errorf("duplicate commit changed the value to %s", v)
	}
	if err := j.Commit(ctx, "", []byte(`x`)); err == nil {
		t.Error("empty key must be rejected")
	}
}

func TestConfigMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bdj")
	j, _ := openT(t, path, testMeta)
	j.Close()

	other := testMeta
	other.ConfigDigest = ConfigDigest(map[string]string{"faults": "seed=1,rate=0.5", "partial": "true"})
	_, _, err := Open(context.Background(), path, other)
	if !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("Open with different knobs = %v, want ErrConfigMismatch", err)
	}
}

func TestCorruptFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bdj")
	if err := os.WriteFile(path, []byte("this is not a journal at all"), 0o666); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(context.Background(), path, testMeta)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on a non-journal = %v, want ErrCorrupt", err)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bdj")
	ctx := context.Background()
	j, _ := openT(t, path, testMeta)
	for i := 0; i < 3; i++ {
		if err := j.Commit(ctx, fmt.Sprintf("k%d", i), []byte(`true`)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	clean := fileSize(t, path)

	// Simulate a crash mid-append: half a frame of garbage at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, rec := openT(t, path, testMeta)
	if rec.Records != 3 {
		t.Fatalf("recovered %d records, want 3", rec.Records)
	}
	if rec.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("TruncatedBytes = %d, want %d", rec.TruncatedBytes, len(torn))
	}
	if got := fileSize(t, path); got != clean {
		t.Fatalf("torn tail not truncated: size %d, want %d", got, clean)
	}
	// Appends after recovery must land on the clean end and survive a
	// further reopen.
	if err := j2.Commit(ctx, "k3", []byte(`true`)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, rec3 := openT(t, path, testMeta)
	if rec3.Records != 4 || rec3.TruncatedBytes != 0 {
		t.Fatalf("post-recovery reopen = %+v, want 4 clean records", rec3)
	}
}

func TestCorruptRecordEndsRecoveredPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bdj")
	ctx := context.Background()
	j, _ := openT(t, path, testMeta)
	for i := 0; i < 4; i++ {
		if err := j.Commit(ctx, fmt.Sprintf("k%d", i), []byte(`1`)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Flip one payload byte inside the third record: its CRC no longer
	// matches, so recovery keeps the two records before it and drops the
	// rest — the longest valid prefix.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(len(magic))
	for i := 0; i < 3; i++ { // skip header + two records
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		off += 8 + n
	}
	data[off+8] ^= 0xff
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	j2, rec := openT(t, path, testMeta)
	if rec.Records != 2 {
		t.Fatalf("recovered %d records past a corrupt frame, want 2", rec.Records)
	}
	if _, ok := j2.Lookup("k1"); !ok {
		t.Error("record before the corruption must survive")
	}
	if _, ok := j2.Lookup("k2"); ok {
		t.Error("corrupted record must not be recovered")
	}
}

func TestConcurrentCommitLookup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bdj")
	ctx := context.Background()
	j, _ := openT(t, path, testMeta)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("g%d/i%d", g, i)
				if err := j.Commit(ctx, key, []byte(`0`)); err != nil {
					t.Errorf("Commit(%s): %v", key, err)
					return
				}
				if _, ok := j.Lookup(key); !ok {
					t.Errorf("Lookup(%s) missing right after Commit", key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if j.Len() != 200 {
		t.Fatalf("Len = %d, want 200", j.Len())
	}
	j.Close()
	_, rec := openT(t, path, testMeta)
	if rec.Records != 200 || rec.TruncatedBytes != 0 {
		t.Fatalf("reopen after concurrent commits = %+v, want 200 clean records", rec)
	}
}

// TestCommitFaultLeavesRecoverableJournal drives the injector's
// checkpoint:commit site at rate 1: the error lands between the append
// and the fsync — the mid-write crash window — and a reopen must still
// recover a usable journal (the record may or may not have reached the
// disk; either way the file stays readable).
func TestCommitFaultLeavesRecoverableJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bdj")
	spec, err := fault.Parse("seed=7,rate=1,kinds=error,stages=checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	ctx := config.WithContext(context.Background(), config.Config{Faults: fault.New(spec)})

	j, _ := openT(t, path, testMeta)
	if err := j.Commit(ctx, "doomed", []byte(`1`)); err == nil {
		t.Fatal("Commit under rate=1 checkpoint faults should fail")
	}
	j.Close()

	j2, _ := openT(t, path, testMeta)
	if err := j2.Commit(context.Background(), "fine", []byte(`2`)); err != nil {
		t.Fatalf("journal unusable after a failed commit: %v", err)
	}
	if v, ok := j2.Lookup("fine"); !ok || string(v) != "2" {
		t.Fatalf("Lookup(fine) = %q %v after recovery", v, ok)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "result.json")
	if err := WriteFileAtomic(path, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"a":2}` {
		t.Fatalf("content = %s, want the second write", b)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestConfigDigestDeterministic(t *testing.T) {
	a := ConfigDigest(map[string]string{"x": "1", "y": "2"})
	b := ConfigDigest(map[string]string{"y": "2", "x": "1"})
	if a != b {
		t.Errorf("digest depends on map order: %s vs %s", a, b)
	}
	if a == ConfigDigest(map[string]string{"x": "1", "y": "3"}) {
		t.Error("digest must change with the values")
	}
	if len(a) != 16 {
		t.Errorf("digest length = %d, want 16", len(a))
	}
}

func TestPointID(t *testing.T) {
	if got := PointID("alu", "organic", "wire", "n3"); got != "alu/organic/wire/n3" {
		t.Errorf("PointID = %q", got)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
