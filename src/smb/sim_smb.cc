#include "smb/sim_smb.h"

#include <cassert>

namespace shmcaffe::smb {

SimSmbServer::SimSmbServer(sim::Simulation& sim, net::Fabric& fabric, SimSmbOptions options)
    : sim_(&sim),
      fabric_(&fabric),
      options_(options),
      rds_(sim),
      device_(std::make_unique<rdma::Device>(sim, fabric, "smb-server",
                                             options.server_bandwidth)),
      pd_(*device_) {
  aggregate_link_ = fabric.add_link("smb-server.agg", options_.server_bandwidth);
  mailbox_ = rds_.attach(*device_);
}

SimSmbServer::~SimSmbServer() = default;

void SimSmbServer::start() {
  assert(!started_);
  started_ = true;
  sim_->spawn(serve_loop());
}

std::vector<net::LinkId> SimSmbServer::inbound_path(rdma::Device& client) const {
  if (options_.aggregate_data_path) return {client.tx(), aggregate_link_};
  return {client.tx(), device_->rx()};
}

std::vector<net::LinkId> SimSmbServer::outbound_path(rdma::Device& client) const {
  if (options_.aggregate_data_path) return {aggregate_link_, client.rx()};
  return {device_->tx(), client.rx()};
}

SimSmbServer::SegmentInfo* SimSmbServer::find_segment(std::uint64_t access_key) {
  const auto it = segments_.find(access_key);
  return it == segments_.end() ? nullptr : &it->second;
}

sim::Task<void> SimSmbServer::serve_loop() {
  for (;;) {
    rdma::Datagram request = co_await rds_.recv(mailbox_);
    sim_->spawn(handle_request(request));
  }
}

sim::Task<void> SimSmbServer::handle_request(rdma::Datagram request) {
  co_await sim_->delay(options_.control_service_time);
  rdma::Datagram reply;
  reply.opcode = kFail;

  switch (request.opcode) {
    case kCreate: {
      // a = shm key, b = bytes
      const ShmKey key = request.a;
      const auto bytes = static_cast<std::int64_t>(request.b);
      if (!key_to_access_.contains(key) && bytes > 0) {
        SegmentInfo info;
        info.key = key;
        info.bytes = bytes;
        info.mr = pd_.register_memory(bytes);
        info.accumulate_gate = std::make_unique<sim::SimMutex>(*sim_);
        const std::uint64_t access_key = next_access_key_++;
        key_to_access_.emplace(key, access_key);
        segments_.emplace(access_key, std::move(info));
        reply.opcode = kOk;
        reply.a = access_key;
      }
      break;
    }
    case kAttach: {
      const auto it = key_to_access_.find(request.a);
      if (it != key_to_access_.end()) {
        reply.opcode = kOk;
        reply.a = it->second;
        reply.b = static_cast<std::uint64_t>(segments_.at(it->second).bytes);
      }
      break;
    }
    case kAccumulate: {
      // a = src access key, b = dst access key
      SegmentInfo* src = find_segment(request.a);
      SegmentInfo* dst = find_segment(request.b);
      if (src != nullptr && dst != nullptr && src->bytes == dst->bytes) {
        // The server processes accumulate requests against the same
        // destination exclusively (paper step T.A3).
        sim::SimLock lock = co_await dst->accumulate_gate->scoped_lock();
        co_await sim_->delay(
            units::transfer_time(src->bytes, options_.accumulate_bandwidth));
        ++accumulates_served_;
        reply.opcode = kOk;
      }
      break;
    }
    default:
      break;
  }
  co_await rds_.send_to(mailbox_, request.source, reply);
}

SimSmbClient::SimSmbClient(SimSmbServer& server, const std::string& name,
                           double bandwidth_bytes_per_sec)
    : server_(&server) {
  device_ = std::make_unique<rdma::Device>(server.simulation(), server.fabric(), name,
                                           bandwidth_bytes_per_sec);
  mailbox_ = server.rds().attach(*device_);
}

sim::Task<Handle> SimSmbClient::create(ShmKey key, std::int64_t bytes) {
  rdma::Datagram request;
  request.opcode = SimSmbServer::kCreate;
  request.a = key;
  request.b = static_cast<std::uint64_t>(bytes);
  co_await server_->rds().send_to(mailbox_, server_->mailbox(), request);
  const rdma::Datagram reply = co_await server_->rds().recv(mailbox_);
  if (reply.opcode != SimSmbServer::kOk) {
    throw SmbError("SMB create failed for key " + std::to_string(key));
  }
  co_return Handle{reply.a};
}

sim::Task<Handle> SimSmbClient::attach(ShmKey key) {
  rdma::Datagram request;
  request.opcode = SimSmbServer::kAttach;
  request.a = key;
  co_await server_->rds().send_to(mailbox_, server_->mailbox(), request);
  const rdma::Datagram reply = co_await server_->rds().recv(mailbox_);
  if (reply.opcode != SimSmbServer::kOk) {
    throw SmbError("SMB attach failed for key " + std::to_string(key));
  }
  co_return Handle{reply.a};
}

sim::Task<void> SimSmbClient::read(Handle handle, std::int64_t bytes, std::int64_t offset) {
  SimSmbServer::SegmentInfo* segment = server_->find_segment(handle.access_key);
  if (segment == nullptr) throw SmbError("read from unknown SMB handle");
  server_->pd_.check_remote_access(segment->mr.rkey, offset, bytes);
  co_await server_->simulation().delay(server_->options().op_overhead);
  co_await server_->fabric().transfer(server_->outbound_path(*device_), bytes);
}

sim::Task<void> SimSmbClient::write(Handle handle, std::int64_t bytes, std::int64_t offset) {
  SimSmbServer::SegmentInfo* segment = server_->find_segment(handle.access_key);
  if (segment == nullptr) throw SmbError("write to unknown SMB handle");
  server_->pd_.check_remote_access(segment->mr.rkey, offset, bytes);
  co_await server_->simulation().delay(server_->options().op_overhead);
  co_await server_->fabric().transfer(server_->inbound_path(*device_), bytes);
}

sim::Task<void> SimSmbClient::accumulate(Handle src, Handle dst) {
  rdma::Datagram request;
  request.opcode = SimSmbServer::kAccumulate;
  request.a = src.access_key;
  request.b = dst.access_key;
  co_await server_->rds().send_to(mailbox_, server_->mailbox(), request);
  const rdma::Datagram reply = co_await server_->rds().recv(mailbox_);
  if (reply.opcode != SimSmbServer::kOk) {
    throw SmbError("SMB accumulate failed");
  }
}

}  // namespace shmcaffe::smb
