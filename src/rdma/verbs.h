// Verbs-like RDMA layer on top of the fabric model.
//
// This mirrors the slice of InfiniBand verbs that the Soft Memory Box uses:
//
//  * Device            — an HCA attached to the fabric (full-duplex endpoint)
//  * ProtectionDomain  — owns registered MemoryRegions and their rkeys
//  * MemoryRegion      — a registered buffer; remote access requires a valid
//                        rkey and in-bounds [offset, offset+len)
//  * DatagramService   — an RDS-like reliable datagram mailbox per device,
//                        used for control messages (the paper's SMB derives
//                        its control path from the Linux RDS module)
//
// One-sided RDMA READ/WRITE is modelled by the simulated SMB client itself
// (smb/sim_smb.h): the responder's protection check, then a fabric transfer
// over the server's data path.  Completion semantics are collapsed into
// task completion: an awaited operation resumes when the HCA would have
// raised the work completion.  Only sizes travel through the simulation;
// payload bytes live in the functional SMB, not here.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "net/fabric.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace shmcaffe::rdma {

/// Thrown on protection violations (bad rkey, out-of-bounds access).
class AccessError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An HCA attached to the fabric.
class Device {
 public:
  Device(sim::Simulation& sim, net::Fabric& fabric, std::string name,
         double bandwidth_bytes_per_sec);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] net::LinkId tx() const { return endpoint_.tx; }
  [[nodiscard]] net::LinkId rx() const { return endpoint_.rx; }
  [[nodiscard]] net::Fabric& fabric() const { return *fabric_; }
  [[nodiscard]] sim::Simulation& simulation() const { return *sim_; }

 private:
  sim::Simulation* sim_;
  net::Fabric* fabric_;
  std::string name_;
  net::Fabric::Endpoint endpoint_;
};

/// A registered memory region.  `addr` is a virtual address within the
/// owning protection domain's address space (sizes-only simulation).
struct MemoryRegion {
  std::uint64_t addr = 0;
  std::int64_t length = 0;
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;
};

/// Owns memory registrations for one device.
class ProtectionDomain {
 public:
  explicit ProtectionDomain(Device& device) : device_(&device) {}

  /// Registers a region of `length` bytes; addresses are assigned
  /// sequentially in this PD's virtual space.
  MemoryRegion register_memory(std::int64_t length);

  /// Validates a remote access of [offset, offset+len) under `rkey`.
  /// Throws AccessError on violation.
  void check_remote_access(std::uint32_t rkey, std::int64_t offset, std::int64_t len) const;

  [[nodiscard]] Device& device() const { return *device_; }
  [[nodiscard]] std::size_t region_count() const { return regions_.size(); }

 private:
  Device* device_;
  std::uint64_t next_addr_ = 0x1000;
  std::uint32_t next_key_ = 1;
  std::map<std::uint32_t, MemoryRegion> regions_;  // by rkey
};

/// A small control datagram (RDS-style).  Fields are opaque to this layer.
struct Datagram {
  std::uint32_t opcode = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t d = 0;
  /// Index of the sending service, filled in by send_to for replies.
  std::size_t source = 0;
};

/// RDS-like reliable datagram mailboxes.  Each device registering with the
/// service gets an index; datagrams are ~256 bytes on the wire plus the
/// fabric's message latency.
class DatagramService {
 public:
  explicit DatagramService(sim::Simulation& sim) : sim_(&sim) {}

  /// Registers a device; returns its mailbox index.
  std::size_t attach(Device& device);

  /// Sends `dg` from mailbox `from` to mailbox `to` over the fabric.
  [[nodiscard]] sim::Task<void> send_to(std::size_t from, std::size_t to, Datagram dg);

  /// Receives the next datagram addressed to mailbox `index`.
  [[nodiscard]] sim::Task<Datagram> recv(std::size_t index);

  /// Wire size charged per datagram.
  static constexpr std::int64_t kWireBytes = 256;

 private:
  struct Mailbox {
    Device* device;
    std::unique_ptr<sim::Channel<Datagram>> queue;
  };
  sim::Simulation* sim_;
  std::vector<Mailbox> mailboxes_;
};

}  // namespace shmcaffe::rdma
