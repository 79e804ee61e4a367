// Package checkpoint persists completed units of work — sweep grid
// points and experiment tables — across process lifetimes,
// so a run killed mid-sweep (SIGKILL, OOM, node loss) resumes from its
// journal instead of recomputing every finished point.
//
// # Journal format
//
// A journal is a single append-only file:
//
//	magic "BDJ1"
//	frame 0:   header JSON (version, tool, label, config digest)
//	frame 1…n: record JSON {"k": <point ID>, "v": <raw result JSON>}
//
// Every frame is length+CRC32-framed — uint32 little-endian payload
// length, uint32 little-endian IEEE CRC32 of the payload, then the
// payload — so a torn append (the crash the journal exists to survive)
// is detected on recovery rather than parsed as garbage: Open scans
// frames until the first short or CRC-mismatched one, keeps the longest
// valid prefix, and truncates the torn tail so new commits append to a
// clean end. Decode never panics on arbitrary bytes (fuzzed).
//
// # Atomicity and durability
//
// Journal creation (magic + header) goes through a temp file in the
// same directory, fsync, and an atomic rename, so a crash during
// creation leaves either no journal or a complete empty one — never a
// half-written header. Record commits are appends: the frame is written
// and fsynced before Commit returns, and the CRC framing makes the one
// non-atomic step (a torn append) detectable. Whole files written by
// callers (e.g. the cell-library cache) use WriteFileAtomic for the
// same temp+rename+fsync discipline.
//
// # Config binding
//
// The header's config digest binds a journal to the configuration that
// produced it (fault spec, partial mode, request parameters — whatever
// the caller folds into ConfigDigest). Open rejects a journal whose
// digest differs from the caller's with ErrConfigMismatch: a stale
// journal is an error to surface, never a cache to silently merge.
//
// # Keys
//
// Records are keyed by deterministic point IDs (PointID) naming the
// experiment, the grid coordinates, and the knobs that shape the value
// — e.g. "alu/organic/wire/k0/n17". Within one journal a key commits
// once; later commits under the same key are no-ops, so resumed runs
// replay the first (and only) committed value bit-identically.
//
// # Observability
//
// Open emits a "checkpoint.load" span (records recovered, bytes
// truncated) and Commit a "checkpoint.commit" span; commits and
// replayed lookups feed the "checkpoint.commit" and
// "checkpoint.skipped" metrics counters via internal/runner's
// Checkpointed wrapper. Commit is also a fault-injection site
// ("checkpoint:commit"), so chaos specs — including kinds=kill hard
// crashes — exercise the mid-write path the recovery scan guards.
package checkpoint
