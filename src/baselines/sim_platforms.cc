#include "baselines/sim_platforms.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "coll/pcie_model.h"
#include "fault/injector.h"
#include "fault/journal.h"
#include "minimpi/sim_mpi.h"
#include "net/fabric.h"
#include "sim/simulation.h"

namespace shmcaffe::baselines {
namespace {

void validate(const SimPlatformOptions& options) {
  if (options.workers < 1) throw std::invalid_argument("workers must be >= 1");
  if (options.iterations < 1) throw std::invalid_argument("iterations must be >= 1");
}

/// Mean of the per-worker compute samples; comm for a synchronous platform
/// is everything else in the iteration.
struct SyncIterationAccounting {
  SimTime comp_sum = 0;  // sum over workers and iterations of own compute
  SimTime iter_sum = 0;  // sum over iterations of the full iteration time
  std::int64_t rounds = 0;  // iterations actually accounted (< target on crash)
  std::int64_t worker_rounds = 0;  // sum over rounds of the live cohort size

  void add(const std::vector<SimTime>& comps, SimTime iteration_time) {
    for (SimTime c : comps) comp_sum += c;
    iter_sum += iteration_time * static_cast<SimTime>(comps.size());
    rounds += 1;
    worker_rounds += static_cast<std::int64_t>(comps.size());
  }

  [[nodiscard]] cluster::PlatformTiming finish(std::int64_t iterations,
                                               SimTime makespan) const {
    cluster::PlatformTiming timing;
    const auto denom = std::max<std::int64_t>(1, worker_rounds);
    timing.mean_comp = comp_sum / denom;
    timing.mean_comm = iter_sum / denom - timing.mean_comp;
    timing.makespan = makespan;
    timing.iterations = iterations;
    timing.completed_worker_iterations = worker_rounds;
    return timing;
  }
};

/// A worker's base compute time under the planted-heterogeneity profile.
SimTime het_comp_base(const SimPlatformOptions& options,
                      const cluster::ModelProfile& model, int worker) {
  return static_cast<SimTime>(static_cast<double>(model.comp_time) *
                              options.heterogeneity.compute_scale(worker));
}

/// Earliest crash iteration over `workers`, or -1 if nobody crashes.  A
/// synchronous platform halts there: the collective can never complete again.
std::int64_t earliest_crash(const fault::FaultInjector* faults, int workers) {
  if (faults == nullptr) return -1;
  std::int64_t earliest = -1;
  for (int w = 0; w < workers; ++w) {
    const std::int64_t at = faults->crash_iteration(w);
    if (at >= 0 && (earliest < 0 || at < earliest)) earliest = at;
  }
  return earliest;
}

/// Per-iteration straggler penalty: a synchronous step waits for the most
/// stalled worker.
SimTime max_stall(const fault::FaultInjector* faults, int workers, std::int64_t it) {
  if (faults == nullptr) return 0;
  double worst = 0.0;
  for (int w = 0; w < workers; ++w) {
    worst = std::max(worst, faults->stall_seconds(w, it));
  }
  return worst > 0.0 ? units::from_seconds(worst) : 0;
}

}  // namespace

cluster::PlatformTiming simulate_caffe(const SimPlatformOptions& options) {
  validate(options);
  const cluster::ModelProfile& model = cluster::profile(options.model);
  const cluster::TestbedSpec& spec = options.testbed;
  const coll::PcieModel pcie{spec.pcie_bus_bandwidth, 20 * units::kMicrosecond};
  common::Rng rng(options.seed);

  const int k = options.workers;
  const std::int64_t crash_at = earliest_crash(options.faults, k);
  SyncIterationAccounting acc;
  SimTime makespan = 0;
  std::vector<SimTime> comps(static_cast<std::size_t>(k));
  for (std::int64_t it = 0; it < options.iterations; ++it) {
    if (crash_at >= 0 && it >= crash_at) break;  // collective can never complete
    for (int w = 0; w < k; ++w) {
      comps[static_cast<std::size_t>(w)] =
          options.jitter.sample(rng, het_comp_base(options, model, w));
    }
    const SimTime comp_max = *std::max_element(comps.begin(), comps.end());
    SimTime iteration = comp_max + max_stall(options.faults, k, it);
    if (k > 1) {
      iteration += pcie.ring_allreduce_time(k, model.param_bytes);
      iteration += spec.caffe_feed_per_gpu * k;
      iteration += spec.caffe_bus_contention * k * k;
    }
    acc.add(comps, iteration);
    makespan += iteration;
  }
  cluster::PlatformTiming timing = acc.finish(options.iterations, makespan);
  if (crash_at >= 0 && crash_at < options.iterations) timing.crashed_workers = 1;
  return timing;
}

cluster::PlatformTiming simulate_caffe_mpi(const SimPlatformOptions& options) {
  validate(options);
  const cluster::ModelProfile& model = cluster::profile(options.model);
  const cluster::TestbedSpec& spec = options.testbed;
  const int k = options.workers;
  const int capacity =
      options.membership != nullptr ? options.membership->capacity(k) : k;
  common::Rng rng(options.seed);

  sim::Simulation sim;
  net::FabricOptions fabric_options;
  fabric_options.efficiency = spec.fabric_efficiency;
  net::Fabric fabric(sim, fabric_options);

  // Slaves have full-rate HCAs (a planted slow machine's NIC divides its
  // rate); all parameter traffic funnels through the master's CPU staging
  // pipeline (Caffe-MPI v1.0 moves gradients through host memory without
  // GPUDirect).
  std::vector<net::Fabric::Endpoint> endpoints;
  for (int r = 0; r < capacity; ++r) {
    endpoints.push_back(fabric.add_endpoint(
        "rank" + std::to_string(r),
        spec.hca_bandwidth / options.heterogeneity.nic_scale(r)));
  }
  const net::LinkId staging = fabric.add_link("master-staging", spec.mpi_stream_bandwidth);

  // The star is master-coordinated, so it alone among the baselines can
  // honour an elastic plan: the master admits joiners and releases drained
  // slaves between synchronous steps.
  std::optional<elastic::MembershipService> membership;
  if (options.membership != nullptr) membership.emplace(k, capacity, /*shards=*/1);

  SyncIterationAccounting acc;
  const SimTime host_copy =
      units::transfer_time(model.param_bytes, spec.host_copy_bandwidth);

  sim.spawn([](sim::Simulation& s, net::Fabric& f, const SimPlatformOptions& opts,
               const cluster::ModelProfile& m, const cluster::TestbedSpec& sp,
               std::vector<net::Fabric::Endpoint>& eps, net::LinkId stage,
               common::Rng& r, SimTime hcopy, int initial,
               elastic::MembershipService* service,
               SyncIterationAccounting& acc) -> sim::Task<> {
    const int n = static_cast<int>(eps.size());
    std::vector<char> active(static_cast<std::size_t>(n), 0);
    for (int w = 0; w < initial; ++w) active[static_cast<std::size_t>(w)] = 1;
    const std::int64_t crash_at = earliest_crash(opts.faults, n);
    std::vector<SimTime> comps;
    for (std::int64_t it = 0; it < opts.iterations; ++it) {
      if (crash_at >= 0 && it >= crash_at) break;  // star can never gather again
      if (service != nullptr) {
        // The cohort marches in lockstep, so a planned trigger is met the
        // moment the shared iteration counter reaches it.
        for (const elastic::MembershipEvent& ev : opts.membership->joins()) {
          if (ev.at_iteration <= it && !active[static_cast<std::size_t>(ev.worker)]) {
            active[static_cast<std::size_t>(ev.worker)] = 1;
            service->join(ev.worker);
          }
        }
        for (const elastic::MembershipEvent& ev : opts.membership->drains()) {
          // Rank 0 is the star's hub and can never leave.
          if (ev.worker != 0 && ev.at_iteration <= it &&
              active[static_cast<std::size_t>(ev.worker)]) {
            active[static_cast<std::size_t>(ev.worker)] = 0;
            service->drain(ev.worker);
          }
        }
      }
      const SimTime iter_start = s.now();
      comps.clear();
      SimTime comp_max = 0;
      for (int w = 0; w < n; ++w) {
        if (!active[static_cast<std::size_t>(w)]) continue;
        const SimTime c = opts.jitter.sample(r, het_comp_base(opts, m, w));
        comps.push_back(c);
        comp_max = std::max(comp_max, c);
      }
      // All GPUs compute then stage to host; an injected stall delays the
      // slowest worker and therefore the whole synchronous step.
      co_await s.delay(comp_max + hcopy + max_stall(opts.faults, n, it));

      // Gather: every active slave streams its gradients through the
      // master's staging link (concurrent flows; the link is the bottleneck).
      std::vector<sim::Task<void>> gather;
      for (int slave = 1; slave < n; ++slave) {
        if (!active[static_cast<std::size_t>(slave)]) continue;
        gather.push_back(f.transfer(eps[static_cast<std::size_t>(slave)].tx, stage,
                                    m.param_bytes));
      }
      co_await sim::when_all(s, std::move(gather));
      // Master averages the live cohort's gradients on the CPU and applies
      // the update.
      co_await s.delay(units::transfer_time(
          m.param_bytes * static_cast<std::int64_t>(comps.size()),
          sp.cpu_reduce_bandwidth));
      // Scatter the refreshed master weights.
      std::vector<sim::Task<void>> scatter;
      for (int slave = 1; slave < n; ++slave) {
        if (!active[static_cast<std::size_t>(slave)]) continue;
        scatter.push_back(f.transfer(stage, eps[static_cast<std::size_t>(slave)].rx,
                                     m.param_bytes));
      }
      co_await sim::when_all(s, std::move(scatter));
      co_await s.delay(hcopy);  // slaves stage the weights back to the GPU

      acc.add(comps, s.now() - iter_start);
    }
  }(sim, fabric, options, model, spec, endpoints, staging, rng, host_copy, k,
    membership.has_value() ? &*membership : nullptr, acc));
  sim.run();
  cluster::PlatformTiming timing = acc.finish(options.iterations, sim.now());
  if (acc.rounds < options.iterations) timing.crashed_workers = 1;
  if (membership.has_value()) {
    std::vector<fault::ControlEvent> observed;
    membership->report(timing, observed);
    // Planned joins/drains only (no straggler detection in a synchronous
    // star), filtered by what the run reached before any crash truncation.
    timing.journal = fault::executed(
        elastic::plan_control_events(nullptr, {}, {}, options.membership, {}, k), observed);
  }
  return timing;
}

cluster::PlatformTiming simulate_mpicaffe(const SimPlatformOptions& options) {
  validate(options);
  const cluster::ModelProfile& model = cluster::profile(options.model);
  const cluster::TestbedSpec& spec = options.testbed;
  const int k = options.workers;
  common::Rng rng(options.seed);

  sim::Simulation sim;
  net::FabricOptions fabric_options;
  fabric_options.efficiency = spec.fabric_efficiency;
  net::Fabric fabric(sim, fabric_options);

  // Each rank's allreduce traffic is bounded by its host staging rate (a
  // planted slow machine's NIC divides it further).
  std::vector<net::Fabric::Endpoint> endpoints;
  for (int r = 0; r < k; ++r) {
    endpoints.push_back(fabric.add_endpoint(
        "rank" + std::to_string(r),
        spec.mpi_stream_bandwidth / options.heterogeneity.nic_scale(r)));
  }
  minimpi::SimGroupOps group(sim, fabric, endpoints);

  SyncIterationAccounting acc;
  std::vector<SimTime> comps(static_cast<std::size_t>(k));
  const SimTime host_copy =
      units::transfer_time(model.param_bytes, spec.host_copy_bandwidth);
  const SimTime step_sync =
      k > 1 ? spec.allreduce_step_latency * 2 * (k - 1) : 0;

  sim.spawn([](sim::Simulation& s, const SimPlatformOptions& opts,
               const cluster::ModelProfile& m, minimpi::SimGroupOps& g, common::Rng& r,
               std::vector<SimTime>& comps, SimTime hcopy, SimTime sync,
               SyncIterationAccounting& acc) -> sim::Task<> {
    const std::int64_t crash_at =
        earliest_crash(opts.faults, static_cast<int>(comps.size()));
    for (std::int64_t it = 0; it < opts.iterations; ++it) {
      if (crash_at >= 0 && it >= crash_at) break;  // ring is broken for good
      const SimTime iter_start = s.now();
      for (std::size_t w = 0; w < comps.size(); ++w) {
        comps[w] = opts.jitter.sample(r, het_comp_base(opts, m, static_cast<int>(w)));
      }
      const SimTime comp_max = *std::max_element(comps.begin(), comps.end());
      co_await s.delay(comp_max + hcopy +
                       max_stall(opts.faults, static_cast<int>(comps.size()), it));
      co_await g.ring_allreduce(m.param_bytes);
      co_await s.delay(sync + hcopy);
      acc.add(comps, s.now() - iter_start);
    }
  }(sim, options, model, group, rng, comps, host_copy, step_sync, acc));
  sim.run();
  cluster::PlatformTiming timing = acc.finish(options.iterations, sim.now());
  if (acc.rounds < options.iterations) timing.crashed_workers = 1;
  return timing;
}

}  // namespace shmcaffe::baselines
