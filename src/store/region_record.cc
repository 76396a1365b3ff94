#include "store/region_record.h"

#include <cstring>

#include "util/check.h"
#include "util/string_util.h"

namespace openapi::store {
namespace {

void AppendU32(uint32_t v, std::string* out) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out->append(bytes, 4);
}

void AppendU64(uint64_t v, std::string* out) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out->append(bytes, 8);
}

void AppendDoubles(const double* values, size_t count, std::string* out) {
  out->append(reinterpret_cast<const char*>(values),
              count * sizeof(double));
}

uint32_t ReadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t ReadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

void ReadDoubles(const char* p, size_t count, double* out) {
  std::memcpy(out, p, count * sizeof(double));
}

constexpr size_t kFrameHeaderSize = 4 + 4 + 8;  // magic, size, checksum

constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// Fnv1a64 of four equal-size buffers at once. Each FNV step waits on the
/// previous multiply, so one chain runs at the multiply's latency; four
/// independent chains overlap it (about twice the byte rate of four
/// Fnv1a64 calls). The empty asm keeps the chains in general registers:
/// without it GCC packs them into one vector multiply chain, which is no
/// faster than a single scalar chain.
void Fnv1a64x4(const char* const data[4], size_t size, uint64_t out[4]) {
  const auto* a = reinterpret_cast<const unsigned char*>(data[0]);
  const auto* b = reinterpret_cast<const unsigned char*>(data[1]);
  const auto* c = reinterpret_cast<const unsigned char*>(data[2]);
  const auto* d = reinterpret_cast<const unsigned char*>(data[3]);
  uint64_t ha = kFnvOffsetBasis, hb = kFnvOffsetBasis, hc = kFnvOffsetBasis,
           hd = kFnvOffsetBasis;
  for (size_t i = 0; i < size; ++i) {
    ha = (ha ^ a[i]) * kFnvPrime;
    hb = (hb ^ b[i]) * kFnvPrime;
    hc = (hc ^ c[i]) * kFnvPrime;
    hd = (hd ^ d[i]) * kFnvPrime;
    asm("" : "+r"(ha), "+r"(hb), "+r"(hc), "+r"(hd));
  }
  out[0] = ha;
  out[1] = hb;
  out[2] = hc;
  out[3] = hd;
}

}  // namespace

uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t h = kFnvOffsetBasis;
  for (size_t i = 0; i < size; ++i) {
    h = (h ^ static_cast<unsigned char>(data[i])) * kFnvPrime;
  }
  return h;
}

size_t RecordPayloadSize(size_t dim, size_t num_classes) {
  return 8 + 4 + 4 +
         sizeof(double) * (3 * dim + dim * num_classes + num_classes);
}

size_t RecordFrameSize(size_t dim, size_t num_classes) {
  return kFrameHeaderSize + RecordPayloadSize(dim, num_classes);
}

void EncodeRecord(const RegionRecord& record, size_t dim,
                  size_t num_classes, std::string* out) {
  OPENAPI_CHECK_EQ(record.anchor.size(), dim);
  OPENAPI_CHECK_EQ(record.lo.size(), dim);
  OPENAPI_CHECK_EQ(record.hi.size(), dim);
  OPENAPI_CHECK_EQ(record.model.weights.rows(), dim);
  OPENAPI_CHECK_EQ(record.model.weights.cols(), num_classes);
  OPENAPI_CHECK_EQ(record.model.bias.size(), num_classes);

  std::string payload;
  payload.reserve(RecordPayloadSize(dim, num_classes));
  AppendU64(record.fingerprint, &payload);
  AppendU32(record.argmax, &payload);
  AppendU32(record.epoch, &payload);
  AppendDoubles(record.anchor.data(), dim, &payload);
  AppendDoubles(record.lo.data(), dim, &payload);
  AppendDoubles(record.hi.data(), dim, &payload);
  AppendDoubles(record.model.weights.data().data(), dim * num_classes,
                &payload);
  AppendDoubles(record.model.bias.data(), num_classes, &payload);
  OPENAPI_CHECK_EQ(payload.size(), RecordPayloadSize(dim, num_classes));

  AppendU32(kRecordMagic, out);
  AppendU32(static_cast<uint32_t>(payload.size()), out);
  AppendU64(Fnv1a64(payload.data(), payload.size()), out);
  out->append(payload);
}

Status CheckFrame(std::string_view data, size_t offset, size_t dim,
                  size_t num_classes) {
  if (offset + kFrameHeaderSize > data.size()) {
    return Status::OutOfRange("torn frame header");
  }
  const char* frame = data.data() + offset;
  if (ReadU32(frame) != kRecordMagic) {
    return Status::IoError("bad record magic");
  }
  const uint32_t payload_size = ReadU32(frame + 4);
  const size_t expected = RecordPayloadSize(dim, num_classes);
  if (payload_size != expected) {
    return Status::IoError(util::StrFormat(
        "record payload size %u, expected %zu",
        static_cast<unsigned>(payload_size), expected));
  }
  if (offset + kFrameHeaderSize + payload_size > data.size()) {
    return Status::OutOfRange("torn record payload");
  }
  const uint64_t checksum = ReadU64(frame + 8);
  if (Fnv1a64(frame + kFrameHeaderSize, payload_size) != checksum) {
    return Status::IoError("record checksum mismatch");
  }
  return Status::OK();
}

void CheckFrames(std::string_view frames, size_t dim, size_t num_classes,
                 char* intact) {
  const size_t frame_size = RecordFrameSize(dim, num_classes);
  const size_t payload_size = RecordPayloadSize(dim, num_classes);
  const size_t count = frames.size() / frame_size;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const char* frame[4];
    const char* payload[4];
    for (size_t k = 0; k < 4; ++k) {
      frame[k] = frames.data() + (i + k) * frame_size;
      payload[k] = frame[k] + kFrameHeaderSize;
    }
    uint64_t checksum[4];
    Fnv1a64x4(payload, payload_size, checksum);
    for (size_t k = 0; k < 4; ++k) {
      intact[i + k] = ReadU32(frame[k]) == kRecordMagic &&
                      ReadU32(frame[k] + 4) == payload_size &&
                      ReadU64(frame[k] + 8) == checksum[k];
    }
  }
  for (; i < count; ++i) {
    intact[i] = CheckFrame(frames, i * frame_size, dim, num_classes).ok();
  }
}

void DecodeCheckedFrame(const char* frame, size_t dim, size_t num_classes,
                        RegionRecord* record) {
  const char* payload = frame + kFrameHeaderSize;
  record->fingerprint = ReadU64(payload);
  record->argmax = ReadU32(payload + 8);
  record->epoch = ReadU32(payload + 12);
  const char* p = payload + 16;
  record->anchor.resize(dim);
  ReadDoubles(p, dim, record->anchor.data());
  p += dim * sizeof(double);
  record->lo.resize(dim);
  ReadDoubles(p, dim, record->lo.data());
  p += dim * sizeof(double);
  record->hi.resize(dim);
  ReadDoubles(p, dim, record->hi.data());
  p += dim * sizeof(double);
  record->model.weights.Resize(dim, num_classes);
  ReadDoubles(p, dim * num_classes,
              record->model.weights.mutable_data().data());
  p += dim * num_classes * sizeof(double);
  record->model.bias.resize(num_classes);
  ReadDoubles(p, num_classes, record->model.bias.data());
}

Result<RegionRecord> DecodeRecord(std::string_view data, size_t offset,
                                  size_t dim, size_t num_classes) {
  OPENAPI_RETURN_NOT_OK(CheckFrame(data, offset, dim, num_classes));
  RegionRecord record;
  DecodeCheckedFrame(data.data() + offset, dim, num_classes, &record);
  return record;
}

}  // namespace openapi::store
