// perfbench: end-to-end benchmark of the functional ShmCaffe trainer.
//
//   perfbench --workload <name> --seed <n> --trace 0
//   perfbench --workload <name> --seed <n> --trace 1 --seconds <s> [--trace-out <file>]
//
// --trace 0 runs core::train_shmcaffe once on the workload and reports that
// run; perfbench/run.py starts one process per training run, as a user
// would, and takes the medians.  --trace 1 reports the per-layer metrics:
// the trainer's own WorkerStats split from untraced runs, plus the traced
// replay (replay.h) and its fidelity against the trainer, all within
// --seconds.  Human-readable lines come first; the last line is one JSON
// object.  See README.md for what each workload and metric is for.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/simd.h"
#include "common/stats.h"
#include "core/trainer.h"
#include "replay.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = shmcaffe::core;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --trace <0|1> "
               "[--seconds <s>] [--trace-out <file>]\nworkloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (find_workload(args.workload) == nullptr) usage("unknown or missing --workload");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Machine-wide (steal, total) CPU ticks from /proc/stat: the share of CPU
/// time the hypervisor gave to other guests, to tell a contended run from a
/// slow program.  Zeros where /proc/stat is unreadable.
std::pair<double, double> steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  unsigned long long t[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &t[0], &t[1],
                            &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double total = 0.0;
  for (const unsigned long long v : t) total += static_cast<double>(v);
  return {static_cast<double>(t[7]), total};
}

/// Linear-interpolated quantile (common::SampleSet); NaN when undefined.
double quantile(const std::vector<double>& values, double q) {
  if (values.empty() || !(q >= 0.0 && q <= 1.0)) return std::nan("");
  shmcaffe::common::SampleSet set;
  for (const double v : values) set.add(v);
  return set.quantile(q);
}
double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// The highest quantile with at least ten samples beyond it (NaN below 20
/// samples, where not even the median has ten beyond it).
double tail_q(std::size_t n) { return n < 20 ? std::nan("") : 1.0 - 10.0 / static_cast<double>(n); }

/// Untraced/traced replay pairs per traced run.
constexpr int kReplayPairs = 2;
/// The replay's dl / exchange / collective shares must agree with the
/// trainer's WorkerStats split within this absolute difference.
constexpr double kShareGapBound = 0.10;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The WorkerStats buckets the trainer times; the rest of a worker's wall is
/// skew pacing, board sweeps, termination and the final evaluation.
double train_bucket(const core::WorkerStats& s) { return s.train_seconds; }
double exchange_bucket(const core::WorkerStats& s) { return s.exchange_seconds; }
double collective_bucket(const core::WorkerStats& s) { return s.collective_seconds; }
double wait_bucket(const core::WorkerStats& s) { return s.data_wait_seconds; }
double timed_seconds(const core::WorkerStats& s) {
  return train_bucket(s) + exchange_bucket(s) + collective_bucket(s) + wait_bucket(s);
}

/// One untraced train_shmcaffe run and what the benchmark derives from it.
struct Run {
  double run_s = 0.0;
  double wall_s = 0.0;
  double samples = 0.0;
  double cpu_s = 0.0;
  core::TrainResult result;
  double steal = 0.0;    // share of machine CPU the hypervisor stole meanwhile
  std::string failure;  // empty = passed every check

  [[nodiscard]] double samples_per_s() const { return samples / wall_s; }
  [[nodiscard]] double setup_s() const { return run_s - wall_s; }
  [[nodiscard]] double cpu_ms_per_sample() const { return cpu_s * 1e3 / samples; }
  /// Sum over workers of one WorkerStats bucket.
  template <typename F>
  [[nodiscard]] double sum(F bucket) const {
    double total = 0.0;
    for (const core::WorkerStats& s : result.worker_stats) total += bucket(s);
    return total;
  }
  [[nodiscard]] double iterations() const {
    return sum([](const core::WorkerStats& s) { return static_cast<double>(s.iterations); });
  }
  /// Mean over workers of a bucket, per iteration, in ms.
  template <typename F>
  [[nodiscard]] double ms_per_iter(F bucket) const {
    return sum(bucket) * 1e3 / iterations();
  }
  /// Share of the four timed phases spent in one bucket: the Fig. 10 split,
  /// free of skew pacing and the end-of-run evaluation.
  template <typename F>
  [[nodiscard]] double share(F bucket) const {
    return sum(bucket) / sum(timed_seconds);
  }
};

Run train_once(const Workload& workload, std::uint64_t seed) {
  const core::DistTrainOptions options = workload.options(seed);
  Run run;
  const auto [steal0, ticks0] = steal_ticks();
  const double cpu0 = cpu_seconds();
  const double t0 = wall_now();
  run.result = core::train_shmcaffe(options);
  run.run_s = wall_now() - t0;
  run.cpu_s = cpu_seconds() - cpu0;
  const auto [steal1, ticks1] = steal_ticks();
  run.steal = ticks1 > ticks0 ? (steal1 - steal0) / (ticks1 - ticks0) : 0.0;
  run.wall_s = run.result.wall_seconds;
  std::int64_t total = 0;
  for (const std::int64_t it : run.result.iterations_per_worker) total += it;
  run.samples = static_cast<double>(total * kBatch);

  const std::int64_t target = workload.target_iterations_per_worker() * workload.workers;
  char why[160] = "";
  if (!std::isfinite(run.result.final_loss)) {
    std::snprintf(why, sizeof why, "test loss is not finite");
  } else if (run.result.final_accuracy < workload.accuracy_floor) {
    std::snprintf(why, sizeof why, "test accuracy %.4f below floor %.2f",
                  run.result.final_accuracy, workload.accuracy_floor);
  } else if (total < target) {
    std::snprintf(why, sizeof why, "%lld iterations, target %lld",
                  static_cast<long long>(total), static_cast<long long>(target));
  } else {
    for (std::size_t w = 0; w < run.result.worker_outcomes.size(); ++w) {
      if (run.result.worker_outcomes[w] != core::WorkerOutcome::kFinished) {
        std::snprintf(why, sizeof why, "worker %zu did not finish", w);
        break;
      }
    }
  }
  run.failure = why;
  std::printf("run: samples/s %.1f  run %.3f s  setup %.4f s  loss %.4f  acc %.4f  "
              "cpu %.3f ms/sample  steal %.1f%%  %s\n",
              run.samples_per_s(), run.run_s, run.setup_s(), run.result.final_loss,
              run.result.final_accuracy, run.cpu_ms_per_sample(), run.steal * 100.0,
              run.failure.empty() ? "ok" : ("FAILED: " + run.failure).c_str());
  std::fflush(stdout);
  return run;
}

/// Repeats train_once until the next run would overrun `deadline`; at least
/// once.
std::vector<Run> train_until(const Workload& workload, std::uint64_t seed, double deadline) {
  std::vector<Run> runs;
  double longest = 0.0;
  do {
    runs.push_back(train_once(workload, seed));
    longest = std::max(longest, runs.back().run_s);
  } while (wall_now() + longest < deadline);
  return runs;
}

template <typename F>
double median_of(const std::vector<Run>& runs, F metric) {
  std::vector<double> values;
  for (const Run& run : runs) values.push_back(metric(run));
  return median(values);
}

void print_host(const Workload& workload, const Args& args) {
  std::printf("host: {\"nproc\": %ld, \"simd\": \"%s\", \"pool_width\": %d, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
              sysconf(_SC_NPROCESSORS_ONLN), shmcaffe::common::simd::dispatch_name(),
              shmcaffe::common::parallel::thread_count(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  std::printf("workload: %s (%s)\n  workers %d, group %d, %s %dx%d, batch %d, %zu samples x "
              "%d epochs, base_lr %.3g, seed %llu (held-out seed: %llu)\n",
              workload.name.c_str(), workload.why.c_str(), workload.workers,
              workload.group_size, workload.model.c_str(), workload.side, workload.side, kBatch,
              workload.train_samples, workload.epochs, workload.base_lr,
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kHeldOutSeed));
  std::fflush(stdout);
}

/// The trainer's own per-phase split, from WorkerStats (untraced runs).
std::vector<Metric> worker_stats_split(const std::vector<Run>& runs) {
  auto ms_per_iter = [&](auto bucket) {
    return median_of(runs, [&](const Run& r) { return r.ms_per_iter(bucket); });
  };
  auto share = [&](auto bucket) {
    return median_of(runs, [&](const Run& r) { return r.share(bucket); });
  };
  auto pacing = [](const Run& r) {
    const auto workers = static_cast<double>(r.result.worker_stats.size());
    return (r.wall_s * workers - r.sum(timed_seconds)) * 1e3 / r.iterations();
  };
  auto skew = [](const Run& r) {
    const auto [lo, hi] = std::minmax_element(r.result.iterations_per_worker.begin(),
                                              r.result.iterations_per_worker.end());
    return static_cast<double>(*hi - *lo) * static_cast<double>(r.result.worker_stats.size()) /
           r.iterations();
  };
  return {
      {"dl.train_ms_per_iter", ms_per_iter(train_bucket), "ms"},
      {"core.exchange_ms_per_iter", ms_per_iter(exchange_bucket), "ms"},
      {"coll.collective_share", share(collective_bucket), "share"},
      {"data.wait_ms_per_iter", ms_per_iter(wait_bucket), "ms"},
      {"core.pacing_ms_per_iter", median_of(runs, pacing), "ms"},
      {"core.comm_share", share(exchange_bucket) + share(collective_bucket), "share"},
      {"core.iter_skew", median_of(runs, skew), "ratio"},
  };
}

/// p50 and tail of one span family, scaled to `unit` (1e3 = ms, 1e6 = us).
void add_timing(std::vector<Metric>& out, const Tracer& tracer, const std::string& span,
                const std::string& metric, double scale, const std::string& unit) {
  const std::vector<double> d = tracer.durations(span);
  out.push_back({metric + ".p50", median(d) * scale, unit});
  out.push_back({metric + ".tail", quantile(d, tail_q(d.size())) * scale, unit});
  std::printf("  %-26s n=%-5zu p50 %10.3f %s   p%.1f %10.3f %s\n", metric.c_str(), d.size(),
              median(d) * scale, unit.c_str(), tail_q(d.size()) * 100.0,
              quantile(d, tail_q(d.size())) * scale, unit.c_str());
}

double span_total(const Tracer& tracer, const std::string& span) {
  double total = 0.0;
  for (const double d : tracer.durations(span)) total += d;
  return total;
}

void print_json_metrics(const std::vector<Metric>& metrics) {
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[32] = "null";  // JSON has no NaN: a diverged loss reads null
    if (std::isfinite(metrics[i].value)) std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::size_t count_failed(const std::vector<Run>& runs) {
  return static_cast<std::size_t>(
      std::count_if(runs.begin(), runs.end(), [](const Run& r) { return !r.failure.empty(); }));
}

/// One training run; the last line is {"failure": "", "steal": x,
/// "metrics": {...}} with the end-to-end metrics of this run (run.py takes
/// the medians).
int run_once(const Workload& workload, const Args& args) {
  const Run run = train_once(workload, args.seed);
  std::printf("{\"failure\": \"%s\", \"steal\": %.6f, \"metrics\": {", run.failure.c_str(),
              run.steal);
  print_json_metrics({
      {"samples_per_s", run.samples_per_s(), "samples/s"},
      {"run_s", run.run_s, "s"},
      {"setup_s", run.setup_s(), "s"},
      {"test_accuracy", run.result.final_accuracy, "share"},
      {"test_loss", run.result.final_loss, "nats"},
      {"cpu_ms_per_sample", run.cpu_ms_per_sample(), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  });
  std::printf("}}\n");
  return 0;
}

int run_traced(const Workload& workload, const Args& args, double start) {
  // Replays first (fixed step count), untraced and traced in alternation so
  // their difference is the tracing overhead; the trainer fills the rest.
  Tracer tracer;
  ReplayResult plain;
  ReplayResult traced;
  for (int pair = 0; pair < kReplayPairs; ++pair) {
    plain += run_replay(workload, args.seed, nullptr);
    traced += run_replay(workload, args.seed, &tracer);
  }
  run_probes(workload, args.seed, tracer);
  const std::vector<Run> runs = train_until(workload, args.seed, start + args.seconds);

  std::vector<Metric> metrics = worker_stats_split(runs);
  std::printf("trainer WorkerStats split, median of %zu runs:\n", runs.size());
  print_table(metrics);

  std::printf("traced replay: %d x %d steps x %d workers\n", kReplayPairs,
              workload.replay_iterations, workload.workers);
  add_timing(metrics, tracer, "data.next", "data.next_us", 1e6, "us");
  add_timing(metrics, tracer, "dl.forward", "dl.forward_ms", 1e3, "ms");
  add_timing(metrics, tracer, "dl.backward", "dl.backward_ms", 1e3, "ms");
  add_timing(metrics, tracer, "dl.solver", "dl.solver_ms", 1e3, "ms");
  add_timing(metrics, tracer, "smb.pin", "smb.pin_us", 1e6, "us");
  add_timing(metrics, tracer, "core.t2", "core.t2_us", 1e6, "us");
  add_timing(metrics, tracer, "smb.write", "smb.write_us", 1e6, "us");
  add_timing(metrics, tracer, "smb.accumulate", "smb.accumulate_us", 1e6, "us");
  add_timing(metrics, tracer, "core.flush_wait", "core.flush_wait_us", 1e6, "us");
  add_timing(metrics, tracer, "coll.allreduce", "coll.allreduce_us", 1e6, "us");
  add_timing(metrics, tracer, "coll.broadcast", "coll.broadcast_us", 1e6, "us");
  add_timing(metrics, tracer, "core.board", "core.board_us", 1e6, "us");
  add_timing(metrics, tracer, "common.pool_dispatch", "common.pool_dispatch_us", 1e6, "us");
  const std::vector<double> evals = tracer.durations("core.eval");
  metrics.push_back({"core.eval_ms.p50", median(evals) * 1e3, "ms"});
  std::printf("  %-26s n=%-5zu p50 %10.3f ms\n", "core.eval_ms", evals.size(),
              median(evals) * 1e3);
  metrics.push_back({"smb.cow_clones_per_exchange",
                     static_cast<double>(traced.cow_clones) / static_cast<double>(traced.exchanges),
                     "count"});
  metrics.push_back({"smb.bytes_per_iter",
                     static_cast<double>(traced.bytes_moved) /
                         static_cast<double>(traced.worker_steps),
                     "bytes"});

  // Fidelity: the replay against the trainer, and tracing against none.
  // The replay's split over the same four phases the trainer times.  On
  // ShmCaffe-A the coll spans come from the one-device probe, outside the
  // step, so they are not part of it.
  const auto [covered, steps] = tracer.child_cover("step");
  const double dl = span_total(tracer, "dl.forward") + span_total(tracer, "dl.backward") +
                    span_total(tracer, "dl.solver");
  const double exchange = span_total(tracer, "core.exchange");
  const double collective =
      workload.hybrid()
          ? span_total(tracer, "coll.allreduce") + span_total(tracer, "coll.broadcast")
          : 0.0;
  const double timed = dl + exchange + collective + span_total(tracer, "data.next");
  const double replay_dl = dl / timed;
  const double replay_exchange = exchange / timed;
  const double replay_collective = collective / timed;
  auto trainer_share = [&](auto bucket) {
    return median_of(runs, [&](const Run& r) { return r.share(bucket); });
  };
  const double trainer_dl = trainer_share(train_bucket);
  const double trainer_exchange = trainer_share(exchange_bucket);
  const double trainer_collective = trainer_share(collective_bucket);
  const double gap = std::max({std::abs(replay_dl - trainer_dl),
                               std::abs(replay_exchange - trainer_exchange),
                               std::abs(replay_collective - trainer_collective)});
  const double trainer_rate = median_of(runs, [](const Run& r) { return r.samples_per_s(); });
  metrics.push_back({"replay.samples_per_s", plain.samples_per_s(), "samples/s"});
  metrics.push_back({"trainer.samples_per_s", trainer_rate, "samples/s"});
  metrics.push_back({"replay.self_time_coverage", covered / steps, "share"});
  metrics.push_back({"replay.trace_overhead", traced.wall_seconds / plain.wall_seconds - 1.0,
                     "share"});
  metrics.push_back({"replay.share_gap", gap, "share"});
  std::printf("fidelity:\n  samples/s: replay %.1f (traced %.1f) vs trainer %.1f\n"
              "  shares dl/exchange/collective: replay %.3f/%.3f/%.3f vs trainer "
              "%.3f/%.3f/%.3f (largest gap %.3f: %s within %.2f)\n"
              "  layer self time covers %.1f%% of replay step wall; tracing overhead %+.1f%%\n",
              plain.samples_per_s(), traced.samples_per_s(), trainer_rate, replay_dl,
              replay_exchange, replay_collective, trainer_dl, trainer_exchange,
              trainer_collective, gap, gap <= kShareGapBound ? "agree" : "do NOT agree",
              kShareGapBound, covered / steps * 100.0,
              (traced.wall_seconds / plain.wall_seconds - 1.0) * 100.0);

  if (!args.trace_out.empty()) {
    if (tracer.write_chrome_json(args.trace_out)) {
      std::printf("spans written to %s\n", args.trace_out.c_str());
    } else {
      std::printf("could not write spans to %s\n", args.trace_out.c_str());
    }
  }
  const std::size_t failed = count_failed(runs);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              failed == 0 ? "true" : "false", runs.size(), failed);
  print_json_metrics(metrics);
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const double start = wall_now();
  const Args args = parse(argc, argv);
  const Workload& workload = *find_workload(args.workload);
  print_host(workload, args);
  return args.trace ? run_traced(workload, args, start) : run_once(workload, args);
}
