// Deterministic fault plans for the ShmCaffe training stack.
//
// ShmCaffe's decoupling claim (§III-E, Fig. 6) is that an asynchronous
// SEASGD worker that slows down or dies costs only its own contribution,
// while synchronous SGD pays max-over-workers.  Measuring that claim — and
// hardening the functional stack against it — needs a fault model that is
//   * expressive: worker crashes, transient stalls, SMB server freezes,
//     link degradation/outage windows, dropped datagrams;
//   * deterministic: a (seed, spec) pair always generates the bit-identical
//     event sequence, so a functional run, its timed twin, and a rerun for
//     a paper plot all see the same failures;
//   * shared: both the real-thread trainer and the discrete-event
//     simulation consume the same FaultPlan through the same queries.
//
// A FaultPlan is a plain ordered container of FaultEvents.  Build one by
// hand for targeted tests, or generate one from a FaultPlanSpec for
// sensitivity sweeps.  The FaultInjector in injector.h wraps a plan with
// the per-worker / per-link query API the two stacks use.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace shmcaffe::fault {

enum class FaultKind : std::uint8_t {
  kWorkerCrash,   ///< worker exits (fail-stop) at the start of iteration `iteration`
  kWorkerStall,   ///< worker pauses `duration_seconds` at the start of `iteration`
  kServerFreeze,  ///< SMB server data path blocked during [start, start+duration)
  kServerFailStop,  ///< SMB server dies permanently at `start_seconds`
  kLinkDegrade,   ///< link capacity multiplied by `severity` during the window
  kLinkDown,      ///< link capacity ~0 during the window (flap)
  kDatagramDrop,  ///< control datagram with global sequence `sequence` is lost once
  kSegmentCorruption,  ///< silent bit-flips in server `target`'s segments at `start_seconds`,
                       ///< or inside its `iteration`-th pinned read when iteration >= 1
  kTornWrite,  ///< server `target` applies write ordinal `sequence` only partially
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// One injected fault.  Which fields are meaningful depends on `kind`:
/// crash/stall are (target=worker, iteration[, duration]); freeze is
/// (target=server, start, duration); link events are (target=link, start,
/// duration[, severity]); drops are (sequence).  The integrity faults reuse
/// the same fields rather than widening the struct (the fingerprint encoding
/// stays stable): corruption is (target=server, start, severity=bit-flip
/// count, sequence=nonzero marker doubling as the bit-position seed; high bit
/// clear), or with iteration >= 1 (target=server, iteration=1-based
/// server-local pinned-read ordinal, severity, sequence): the flips land in
/// the storage that read just pinned, after its verification; a torn write
/// is (target=server, sequence=1-based server-local write ordinal,
/// severity=fraction of the payload that lands; the marker is `sequence`
/// with the high bit set, so the two marker spaces never collide).
struct FaultEvent {
  FaultKind kind = FaultKind::kWorkerCrash;
  int target = -1;                 ///< worker / server / link index
  std::int64_t iteration = -1;     ///< iteration-indexed faults
  double start_seconds = 0.0;      ///< time-windowed faults (sim or wall time)
  double duration_seconds = 0.0;
  double severity = 1.0;           ///< bandwidth multiplier for kLinkDegrade
  std::uint64_t sequence = 0;      ///< datagram sequence for kDatagramDrop

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Parameters for generating a random-but-reproducible plan.  All rates
/// default to zero, so a spec only injects what the caller asks for.
struct FaultPlanSpec {
  std::uint64_t seed = 0x0fau;
  int workers = 4;
  std::int64_t horizon_iterations = 100;  ///< faults land in [1, horizon)
  double horizon_seconds = 10.0;          ///< window faults land in [0, horizon)

  double crash_probability = 0.0;    ///< per worker: one fail-stop crash
  double stall_probability = 0.0;    ///< per worker: one transient stall
  double mean_stall_seconds = 0.0;   ///< stall duration ~ U(0.5, 1.5) * mean

  int servers = 0;                   ///< SMB servers eligible for freezes
  double freeze_probability = 0.0;   ///< per server: one freeze window
  double mean_freeze_seconds = 0.0;

  int links = 0;                     ///< fabric links eligible for flaps
  double link_flap_probability = 0.0;  ///< per link: one degrade-or-down window
  double mean_flap_seconds = 0.0;
  double degrade_severity = 0.1;     ///< capacity multiplier while degraded

  std::uint64_t datagram_count = 0;  ///< sequence space for drops
  double datagram_drop_rate = 0.0;   ///< fraction of the space dropped

  double corruption_probability = 0.0;  ///< per server: one silent bit-flip burst
  int corruption_bit_flips = 3;         ///< flips per burst (event.severity)
  double torn_write_probability = 0.0;  ///< per server: one partially-applied write
  std::uint64_t writes_per_server = 0;  ///< write-ordinal space for torn writes
  double torn_write_fraction = 0.5;     ///< payload fraction that lands (event.severity)
};

/// An ordered, deterministic fault schedule.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<FaultEvent> events) : events_(std::move(events)) {}

  /// Deterministically expands a spec: same spec (including seed) always
  /// yields the bit-identical event sequence, independent of platform.
  static FaultPlan generate(const FaultPlanSpec& spec);

  void add(FaultEvent event) { events_.push_back(event); }
  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Order-sensitive digest of the full event sequence; two plans with the
  /// same fingerprint injected the same faults in the same order.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Human-readable one-line-per-event rendering (logs, bench artefacts).
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace shmcaffe::fault
