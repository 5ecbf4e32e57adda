#include "rdma/verbs.h"

#include <cassert>

namespace shmcaffe::rdma {

Device::Device(sim::Simulation& sim, net::Fabric& fabric, std::string name,
               double bandwidth_bytes_per_sec)
    : sim_(&sim), fabric_(&fabric), name_(std::move(name)) {
  endpoint_ = fabric_->add_endpoint(name_, bandwidth_bytes_per_sec);
}

MemoryRegion ProtectionDomain::register_memory(std::int64_t length) {
  assert(length > 0);
  MemoryRegion mr;
  mr.addr = next_addr_;
  mr.length = length;
  mr.lkey = next_key_++;
  mr.rkey = next_key_++;
  next_addr_ += static_cast<std::uint64_t>(length) + 0x1000;  // guard gap
  regions_.emplace(mr.rkey, mr);
  return mr;
}

void ProtectionDomain::check_remote_access(std::uint32_t rkey, std::int64_t offset,
                                           std::int64_t len) const {
  const auto it = regions_.find(rkey);
  if (it == regions_.end()) {
    throw AccessError("remote access with invalid rkey " + std::to_string(rkey));
  }
  const MemoryRegion& mr = it->second;
  if (offset < 0 || len < 0 || offset + len > mr.length) {
    throw AccessError("remote access out of bounds: offset=" + std::to_string(offset) +
                      " len=" + std::to_string(len) +
                      " region_length=" + std::to_string(mr.length));
  }
}

std::size_t DatagramService::attach(Device& device) {
  Mailbox box;
  box.device = &device;
  box.queue = std::make_unique<sim::Channel<Datagram>>(*sim_, 1024);
  mailboxes_.push_back(std::move(box));
  return mailboxes_.size() - 1;
}

sim::Task<void> DatagramService::send_to(std::size_t from, std::size_t to, Datagram dg) {
  assert(from < mailboxes_.size() && to < mailboxes_.size());
  dg.source = from;
  Device& src = *mailboxes_[from].device;
  Device& dst = *mailboxes_[to].device;
  co_await src.fabric().transfer(src.tx(), dst.rx(), kWireBytes);
  co_await mailboxes_[to].queue->push(dg);
}

sim::Task<Datagram> DatagramService::recv(std::size_t index) {
  assert(index < mailboxes_.size());
  return mailboxes_[index].queue->pop();
}

}  // namespace shmcaffe::rdma
