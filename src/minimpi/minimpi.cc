#include "minimpi/minimpi.h"

#include <algorithm>
#include <cassert>

namespace shmcaffe::minimpi {
namespace {

// Collective-internal tags live far above any sane user tag.
constexpr int kCollectiveTagBase = 1 << 24;

std::vector<std::byte> floats_to_bytes(std::span<const float> values) {
  std::vector<std::byte> data(values.size_bytes());
  std::memcpy(data.data(), values.data(), values.size_bytes());
  return data;
}

}  // namespace

Context::Context(int size) : size_(size) {
  if (size < 1) throw MpiError("world size must be >= 1");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());
  collective_counter_.assign(static_cast<std::size_t>(size), 0);
}

Endpoint Context::endpoint(int rank) {
  if (rank < 0 || rank >= size_) throw MpiError("rank out of range");
  return Endpoint(this, rank);
}

void Context::post(int to, Message message) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(to)];
  {
    std::scoped_lock lock(box.mutex);
    box.messages.push_back(std::move(message));
  }
  box.cv.notify_all();
}

Context::Message Context::take(int at, int from, int tag) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(at)];
  std::unique_lock lock(box.mutex);
  for (;;) {
    const auto it = std::find_if(box.messages.begin(), box.messages.end(),
                                 [&](const Message& m) {
                                   return m.tag == tag &&
                                          (from == kAnySource || m.source == from);
                                 });
    if (it != box.messages.end()) {
      Message message = std::move(*it);
      box.messages.erase(it);
      return message;
    }
    box.cv.wait(lock);
  }
}

void Endpoint::send_bytes(int to, int tag, std::vector<std::byte> data) {
  if (to < 0 || to >= size()) throw MpiError("send to invalid rank");
  Context::Message message;
  message.source = rank_;
  message.tag = tag;
  message.data = std::move(data);
  context_->post(to, std::move(message));
}

std::vector<std::byte> Endpoint::recv_bytes(int from, int tag) {
  if (from != kAnySource && (from < 0 || from >= size())) {
    throw MpiError("recv from invalid rank");
  }
  return context_->take(rank_, from, tag).data;
}

void Endpoint::send_floats(int to, int tag, std::span<const float> values) {
  send_bytes(to, tag, floats_to_bytes(values));
}

void Endpoint::recv_floats(int from, int tag, std::span<float> dst) {
  const std::vector<std::byte> data = recv_bytes(from, tag);
  if (data.size() != dst.size_bytes()) throw MpiError("recv_floats size mismatch");
  std::memcpy(dst.data(), data.data(), data.size());
}

int Endpoint::next_collective_tag() {
  // Each collective gets a block of 8192 internal tags (a ring allreduce
  // uses 2(N-1) of them), so consecutive collectives never alias even when
  // neighbouring ranks race ahead.
  const std::uint64_t op = context_->collective_counter_[static_cast<std::size_t>(rank_)]++;
  return kCollectiveTagBase + static_cast<int>((op % (1 << 10)) * (1 << 13));
}

void Endpoint::barrier() {
  Context::BarrierState& b = context_->barrier_;
  std::unique_lock lock(b.mutex);
  const std::uint64_t generation = b.generation;
  if (++b.arrived == size()) {
    b.arrived = 0;
    ++b.generation;
    b.cv.notify_all();
  } else {
    b.cv.wait(lock, [&] { return b.generation != generation; });
  }
}

void Endpoint::broadcast(int root, std::span<float> data) {
  const int tag = next_collective_tag();
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r != root) send_floats(r, tag, data);
    }
  } else {
    recv_floats(root, tag, data);
  }
}

void Endpoint::allreduce_sum(std::span<float> data) {
  const int n = size();
  if (n == 1) {
    (void)next_collective_tag();
    return;
  }
  // Ring allreduce: N-1 reduce-scatter steps, then N-1 allgather steps.
  // The vector is split into N chunks; chunk c has size chunk_size(c).
  const int tag_base = next_collective_tag();
  const std::size_t total = data.size();
  const std::size_t base = total / static_cast<std::size_t>(n);
  const std::size_t extra = total % static_cast<std::size_t>(n);
  auto chunk_begin = [&](int c) {
    const auto uc = static_cast<std::size_t>(c);
    return uc * base + std::min(uc, extra);
  };
  auto chunk_size = [&](int c) {
    return base + (static_cast<std::size_t>(c) < extra ? 1 : 0);
  };

  const int next = (rank_ + 1) % n;
  const int prev = (rank_ + n - 1) % n;
  std::vector<float> incoming;

  // Reduce-scatter: after step s, rank r holds the partial sum of chunk
  // (r - s + n) % n over s+1 contributions.
  for (int step = 0; step < n - 1; ++step) {
    const int send_chunk = (rank_ - step + n) % n;
    const int recv_chunk = (rank_ - step - 1 + n) % n;
    send_floats(next, tag_base + step,
                data.subspan(chunk_begin(send_chunk), chunk_size(send_chunk)));
    incoming.resize(chunk_size(recv_chunk));
    recv_floats(prev, tag_base + step, incoming);
    float* dst = data.data() + chunk_begin(recv_chunk);
    for (std::size_t i = 0; i < incoming.size(); ++i) dst[i] += incoming[i];
  }
  // Allgather: circulate the completed chunks.
  for (int step = 0; step < n - 1; ++step) {
    const int send_chunk = (rank_ + 1 - step + n) % n;
    const int recv_chunk = (rank_ - step + n) % n;
    send_floats(next, tag_base + (n - 1) + step,
                data.subspan(chunk_begin(send_chunk), chunk_size(send_chunk)));
    incoming.resize(chunk_size(recv_chunk));
    recv_floats(prev, tag_base + (n - 1) + step, incoming);
    std::copy(incoming.begin(), incoming.end(), data.begin() + static_cast<std::ptrdiff_t>(
                                                    chunk_begin(recv_chunk)));
  }
}

void Endpoint::reduce_sum(int root, std::span<float> data) {
  const int tag = next_collective_tag();
  if (rank_ == root) {
    std::vector<float> incoming(data.size());
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      recv_floats(r, tag, incoming);
      for (std::size_t i = 0; i < data.size(); ++i) data[i] += incoming[i];
    }
  } else {
    send_floats(root, tag, data);
  }
}

}  // namespace shmcaffe::minimpi
