// ResultStore — the on-disk half of the campaign cache.
//
// Layout of one campaign store directory:
//
//   <dir>/manifest.txt          header (campaign name, spec + code-version
//                               digests, seed, point count) followed by one
//                               "<index>\t<digest>\t<key>" line per point,
//                               in execution order
//   <dir>/objects/<digest>      one completed point's result bytes, wrapped
//                               in a validated container (header with the
//                               payload length + checksum, end sentinel)
//   <dir>/quarantine/<digest>   a typed PointFailure record for a point the
//                               worker pool gave up on (see below)
//   <dir>/quarantine/<digest>.corrupt
//                               the verbatim bytes of an object that failed
//                               container validation (truncated, checksum
//                               mismatch, malformed header), moved aside so
//                               the evidence survives while the point
//                               recomputes
//
// Objects are content-addressed by the point digest (spec scope + point key
// + code-version salt), so existence IS the checkpoint: a point is done iff
// its object file exists *and decodes*, and every write goes through
// common::write_file_atomic, so a kill -9 at any instant leaves either no
// object or a complete one. The container check is the second line of
// defense: the v2 container carries an fnv1a64 checksum of the payload next
// to the explicit length, so a file damaged by anything outside that
// protocol (power loss on a non-journaled filesystem, a bad disk, a flipped
// bit at rest) is detected on read. Detection is never silent: the damaged
// file is moved to quarantine/<digest>.corrupt (an atomic rename) and the
// point reads as missing, so the next run recomputes exactly the damaged
// points while `sos_campaign fsck` and `status` can still report what was
// found. A fresh put() clears the corrupt marker — a recomputed result
// heals the store.
//
// Quarantine records are how a distributed campaign degrades instead of
// dying: a point that kept crashing its worker is recorded as a typed
// PointFailure, never silently dropped. An object, once present, always
// wins over a stale quarantine record.
//
// The store is append-only per campaign (clean() is the only deletion) and
// shared across campaigns: two specs whose points agree on scope + key hit
// the same objects, which is what serves warm-cache reruns.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace sos::campaign {

/// The typed record of a point the worker pool retried to exhaustion and
/// quarantined. Stored under <dir>/quarantine/<digest> so degraded
/// campaigns keep an auditable trail instead of silently dropping points.
struct PointFailure {
  int index = 0;        // point index within the campaign expansion
  std::string key;      // the point's canonical key
  int attempts = 0;     // total attempts made (1 + retries)
  std::string reason;   // last failure, e.g. "connection lost",
                        // "deadline 0.25s exceeded", "truncated result frame"

  /// Round-trippable rendering ("sos-point-failure v1" + key=value lines).
  std::string render() const;
  /// Parses render() output; nullopt on any malformed/truncated record.
  static std::optional<PointFailure> parse(const std::string& text);
};

/// One object that failed container validation, as reported by fsck() or a
/// read that tripped over it. `bytes` is the damaged file's size on disk.
struct CorruptObject {
  std::string digest;
  std::string reason;   // "truncated container", "payload checksum mismatch"...
  std::uint64_t bytes = 0;
};

/// Thrown when output assembly needs an object that was found corrupt (its
/// quarantine/<digest>.corrupt marker exists). Distinct from plain "missing"
/// so the CLI can exit with the dedicated store-corrupt code.
class StoreCorruptError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ResultStore {
 public:
  /// Opens (creating if needed) the store rooted at `dir`. Throws
  /// std::runtime_error if the directories cannot be created.
  explicit ResultStore(std::string dir);

  const std::string& dir() const noexcept { return dir_; }

  /// True iff the object exists AND its container decodes (structure and
  /// payload checksum). A damaged object is quarantined on first read (moved
  /// to quarantine/<digest>.corrupt, warning log) and then counts as
  /// missing, so resume recomputes it instead of trusting garbage.
  bool has(const std::string& digest) const;
  std::optional<std::string> load(const std::string& digest) const;

  /// Durably stores one completed point: container-wrapped content (length +
  /// fnv1a64 payload checksum + end sentinel) via an atomic temp-file +
  /// rename + fsync sequence, so the object either fully exists or does not
  /// exist at all. Also clears any stale quarantine record and corrupt
  /// marker for the digest — a computed result supersedes past failures.
  void put(const std::string& digest, const std::string& content) const;

  std::string object_path(const std::string& digest) const;

  // --- Quarantine records. ---
  void quarantine(const std::string& digest,
                  const PointFailure& failure) const;
  bool is_quarantined(const std::string& digest) const;
  std::optional<PointFailure> load_failure(const std::string& digest) const;
  void clear_quarantine(const std::string& digest) const;
  std::string quarantine_path(const std::string& digest) const;

  // --- Corruption markers (quarantine/<digest>.corrupt). ---
  /// True iff a corrupt marker exists for the digest (a read or fsck pass
  /// found the object damaged and no clean recompute has replaced it yet).
  bool has_corrupt(const std::string& digest) const;
  /// Digests with an unhealed corrupt marker, sorted.
  std::vector<std::string> corrupt_digests() const;
  void clear_corrupt(const std::string& digest) const;
  std::string corrupt_path(const std::string& digest) const;

  /// Integrity scan: validates every object container (structure + payload
  /// checksum), moves damaged objects aside to quarantine/<digest>.corrupt,
  /// and also reports previously quarantined markers that no clean object
  /// has healed. Returns all findings sorted by digest; empty means the
  /// store is clean.
  std::vector<CorruptObject> fsck() const;

  /// Atomically (re)writes the campaign manifest.
  void write_manifest(const std::string& text) const;
  std::optional<std::string> read_manifest() const;
  std::string manifest_path() const;

  /// Removes the manifest, every stored object and every quarantine record
  /// or corrupt marker (only files this store recognizes); returns the
  /// number of files removed. The directory itself is left in place.
  int clean() const;

  /// Digests of every object currently present (valid or not — this is an
  /// inventory of files, not a validation pass).
  std::vector<std::string> object_digests() const;

 private:
  std::string dir_;
  std::string objects_dir_;
  std::string quarantine_dir_;
};

}  // namespace sos::campaign
