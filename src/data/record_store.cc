#include "data/record_store.h"

#include <cstring>

namespace shmcaffe::data {
namespace {

constexpr std::uint32_t kMagic = 0x534d4231;  // "SMB1"

/// Appends `bytes` raw bytes from `data` to `out`.
void append_bytes(std::vector<std::byte>& out, const void* data, std::size_t bytes) {
  const std::size_t at = out.size();
  out.resize(at + bytes);
  if (bytes > 0) std::memcpy(out.data() + at, data, bytes);
}

template <typename T>
void append_pod(std::vector<std::byte>& out, const T& value) {
  append_bytes(out, &value, sizeof(T));
}

template <typename T>
bool read_pod(std::span<const std::byte>& in, T& value) {
  if (in.size() < sizeof(T)) return false;
  std::memcpy(&value, in.data(), sizeof(T));
  in = in.subspan(sizeof(T));
  return true;
}

}  // namespace

bool RecordStore::put(std::string key, std::vector<std::byte> value) {
  const std::int64_t bytes = static_cast<std::int64_t>(value.size());
  const auto [it, inserted] = records_.emplace(std::move(key), std::move(value));
  if (inserted) total_bytes_ += bytes;
  return inserted;
}

std::optional<std::span<const std::byte>> RecordStore::get(const std::string& key) const {
  const auto it = records_.find(key);
  if (it == records_.end()) return std::nullopt;
  return std::span<const std::byte>(it->second);
}

std::vector<std::string> RecordStore::keys() const {
  std::vector<std::string> result;
  result.reserve(records_.size());
  for (const auto& [key, value] : records_) result.push_back(key);
  return result;
}

std::vector<std::byte> encode_sample(std::span<const float> image, int label) {
  std::vector<std::byte> out;
  out.reserve(sizeof(std::uint32_t) * 3 + image.size_bytes());
  append_pod(out, kMagic);
  append_pod(out, static_cast<std::int32_t>(label));
  append_pod(out, static_cast<std::uint32_t>(image.size()));
  append_bytes(out, image.data(), image.size_bytes());
  return out;
}

bool decode_sample(std::span<const std::byte> record, std::vector<float>& image, int& label) {
  std::uint32_t magic = 0;
  std::int32_t stored_label = 0;
  std::uint32_t count = 0;
  if (!read_pod(record, magic) || magic != kMagic) return false;
  if (!read_pod(record, stored_label)) return false;
  if (!read_pod(record, count)) return false;
  if (record.size() != count * sizeof(float)) return false;
  image.resize(count);
  std::memcpy(image.data(), record.data(), record.size());
  label = stored_label;
  return true;
}

std::string record_key(std::size_t index) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%010zu", index);
  return buf;
}

std::size_t write_dataset(const SynthImageDataset& dataset, RecordStore& store) {
  std::vector<float> image(dataset.image_elements());
  std::size_t written = 0;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    dataset.materialize(i, image);
    if (store.put(record_key(i), encode_sample(image, dataset.label(i)))) ++written;
  }
  return written;
}

}  // namespace shmcaffe::data
