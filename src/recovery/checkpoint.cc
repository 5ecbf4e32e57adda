#include "recovery/checkpoint.h"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace shmcaffe::recovery {

namespace {

/// "SCK1" little-endian: ShmCaffe ChecKpoint, format 1.
constexpr std::uint32_t kMagic = 0x31'4b'43'53;
constexpr std::uint32_t kFormatVersion = 1;

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Appends `bytes` raw bytes from `data` to `out`.
void append_bytes(std::vector<std::uint8_t>& out, const void* data, std::size_t bytes) {
  const std::size_t at = out.size();
  out.resize(at + bytes);
  if (bytes > 0) std::memcpy(out.data() + at, data, bytes);
}

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, const T& value) {
  append_bytes(out, &value, sizeof(T));
}

template <typename T>
void append_vector(std::vector<std::uint8_t>& out, const std::vector<T>& values) {
  append_pod(out, static_cast<std::uint32_t>(values.size()));
  append_bytes(out, values.data(), values.size() * sizeof(T));
}

/// Bounds-checked sequential reader over the slot bytes.  Every read checks
/// the remaining span first, so hostile counts/lengths cannot walk past the
/// buffer — failure is sticky and surfaces as decode() returning nullopt.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  bool read(T& out) {
    if (failed_ || bytes_.size() - offset_ < sizeof(T)) {
      failed_ = true;
      return false;
    }
    std::memcpy(&out, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return true;
  }

  template <typename T>
  bool read_vector(std::vector<T>& out) {
    std::uint32_t count = 0;
    if (!read(count)) return false;
    const std::size_t bytes_needed = static_cast<std::size_t>(count) * sizeof(T);
    if (bytes_.size() - offset_ < bytes_needed) {
      failed_ = true;
      return false;
    }
    out.resize(count);
    std::memcpy(out.data(), bytes_.data() + offset_, bytes_needed);
    offset_ += bytes_needed;
    return true;
  }

  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] bool exhausted() const { return !failed_ && offset_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
  bool failed_ = false;
};

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const TrainCheckpoint& checkpoint) {
  std::vector<std::uint8_t> out;
  append_pod(out, kMagic);
  append_pod(out, kFormatVersion);
  append_pod(out, checkpoint.sequence);
  append_pod(out, checkpoint.seed);
  append_pod(out, checkpoint.owner_solver_iteration);
  append_vector(out, checkpoint.worker_iterations);
  append_vector(out, checkpoint.global_weights);
  append_vector(out, checkpoint.owner_params);
  append_vector(out, checkpoint.owner_momentum);
  append_pod(out, fnv1a(out));
  return out;
}

std::optional<TrainCheckpoint> decode_checkpoint(std::span<const std::uint8_t> bytes) {
  Reader reader(bytes);
  std::uint32_t magic = 0;
  std::uint32_t format = 0;
  TrainCheckpoint checkpoint;
  if (!reader.read(magic) || magic != kMagic) return std::nullopt;
  if (!reader.read(format) || format != kFormatVersion) return std::nullopt;
  if (!reader.read(checkpoint.sequence)) return std::nullopt;
  if (!reader.read(checkpoint.seed)) return std::nullopt;
  if (!reader.read(checkpoint.owner_solver_iteration)) return std::nullopt;
  if (!reader.read_vector(checkpoint.worker_iterations)) return std::nullopt;
  if (!reader.read_vector(checkpoint.global_weights)) return std::nullopt;
  if (!reader.read_vector(checkpoint.owner_params)) return std::nullopt;
  if (!reader.read_vector(checkpoint.owner_momentum)) return std::nullopt;
  const std::size_t payload_size = reader.offset();
  std::uint64_t stored_checksum = 0;
  if (!reader.read(stored_checksum)) return std::nullopt;
  if (!reader.exhausted()) return std::nullopt;  // trailing garbage = torn slot
  if (fnv1a(bytes.subspan(0, payload_size)) != stored_checksum) return std::nullopt;
  return checkpoint;
}

CheckpointStore::CheckpointStore(std::string directory) {
  if (directory.empty()) {
    throw std::invalid_argument("checkpoint directory must not be empty");
  }
  slots_[0] = directory + "/checkpoint-a.bin";
  slots_[1] = directory + "/checkpoint-b.bin";
}

const std::string& CheckpointStore::slot_path(int slot) const { return slots_[slot]; }

namespace {

std::optional<TrainCheckpoint> load_slot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  return decode_checkpoint(bytes);
}

}  // namespace

void CheckpointStore::save(const TrainCheckpoint& checkpoint) const {
  // Overwrite the slot that does NOT hold the latest valid checkpoint: a
  // crash mid-write tears only the obsolete slot.
  const std::optional<TrainCheckpoint> a = load_slot(slots_[0]);
  const std::optional<TrainCheckpoint> b = load_slot(slots_[1]);
  int target = 0;
  if (a.has_value() && (!b.has_value() || a->sequence >= b->sequence)) target = 1;
  const std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  std::ofstream out(slots_[target], std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open checkpoint slot for writing: " + slots_[target]);
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) throw std::runtime_error("checkpoint write failed: " + slots_[target]);
}

std::optional<TrainCheckpoint> CheckpointStore::load_latest() const {
  std::optional<TrainCheckpoint> a = load_slot(slots_[0]);
  std::optional<TrainCheckpoint> b = load_slot(slots_[1]);
  if (!a.has_value()) return b;
  if (!b.has_value()) return a;
  return a->sequence >= b->sequence ? a : b;
}

}  // namespace shmcaffe::recovery
