// The serialized unit of the tiered region store: one extracted (or
// imported) locally linear region, exactly what EndpointSession needs to
// re-serve it after a restart without paying extraction queries —
//
//   * the canonical local model (weights d x C, bias C),
//   * the anchor the model was certified at (re-memoized on reload),
//   * the learned bounding box [lo, hi] (seeds the region index and the
//     directory's candidate stab),
//   * the argmax class at the anchor (directory partition),
//   * the model fingerprint (the store's primary key; matches the
//     session's LocalModelFingerprint, so RAM dedup and disk dedup agree).
//
// ## Wire format
//
// Records are framed for an append-only log that must detect torn tails:
//
//   u32  magic           kRecordMagic ("RGN1")
//   u32  payload_size    must equal RecordPayloadSize(dim, num_classes)
//   u64  checksum        FNV-1a 64 over the payload bytes
//   u8[] payload:
//        u64  fingerprint
//        u32  argmax
//        u32  epoch (drift epoch the record was persisted at; the field
//             was written as reserved-0 before drift tracking, so old
//             logs decode as epoch 0 — the store's initial epoch)
//        f64  anchor[dim]
//        f64  lo[dim], hi[dim]
//        f64  weights[dim * num_classes]   (row-major, row = input dim)
//        f64  bias[num_classes]
//
// All integers little-endian, doubles by raw bit pattern — reloaded
// models are BIT-IDENTICAL to what was stored, which is what makes the
// restart test's "same answers after reopen" exact rather than
// approximate. dim / num_classes are not per-record: the log's versioned
// file header fixes them per endpoint namespace, so the expected payload
// size is known before a record is trusted, and a corrupted size field
// can never cause an over-read.

#ifndef OPENAPI_STORE_REGION_RECORD_H_
#define OPENAPI_STORE_REGION_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "api/plm.h"
#include "util/status.h"

namespace openapi::store {

using linalg::Vec;

inline constexpr uint32_t kRecordMagic = 0x314e4752u;  // "RGN1"

struct RegionRecord {
  uint64_t fingerprint = 0;
  uint32_t argmax = 0;
  /// Drift epoch this record belongs to. RegionStore::Put stamps it with
  /// the store's current epoch; records from an older epoch (the
  /// endpoint's model changed under the cache) are excluded from reload
  /// candidates rather than served.
  uint32_t epoch = 0;
  Vec anchor;
  Vec lo;
  Vec hi;
  api::LocalLinearModel model;
};

/// FNV-1a 64 over `size` bytes — the per-record checksum.
uint64_t Fnv1a64(const char* data, size_t size);

/// Payload / full frame size of one record for an endpoint of the given
/// shape. Deterministic, so recovery can bound-check before decoding.
size_t RecordPayloadSize(size_t dim, size_t num_classes);
size_t RecordFrameSize(size_t dim, size_t num_classes);

/// Appends the framed record to *out. CHECK-fails if the record's shapes
/// disagree with (dim, num_classes) — that is a programming error, not a
/// recoverable condition.
void EncodeRecord(const RegionRecord& record, size_t dim,
                  size_t num_classes, std::string* out);

/// Validates the frame starting at data[offset] without decoding it:
///   OutOfRange          frame extends past the end of `data` (torn tail)
///   IoError             bad magic, wrong payload size, or checksum
///                       mismatch (corruption)
/// Recovery treats both the same way — truncate at `offset` — but the
/// distinction makes the log's warning messages say what happened.
Status CheckFrame(std::string_view data, size_t offset, size_t dim,
                  size_t num_classes);

/// CheckFrame over the whole frames `frames` holds, back to back from its
/// first byte: intact[i] is set to whether frame i passes. Checksums four
/// frames at a time, so it is the fast path for scanning a log.
void CheckFrames(std::string_view frames, size_t dim, size_t num_classes,
                 char* intact);

/// Decodes a frame CheckFrame accepted into *record, reusing its buffers
/// (replay decodes every record of a log into one RegionRecord).
void DecodeCheckedFrame(const char* frame, size_t dim, size_t num_classes,
                        RegionRecord* record);

/// CheckFrame, then DecodeCheckedFrame into a fresh record.
Result<RegionRecord> DecodeRecord(std::string_view data, size_t offset,
                                  size_t dim, size_t num_classes);

}  // namespace openapi::store

#endif  // OPENAPI_STORE_REGION_RECORD_H_
