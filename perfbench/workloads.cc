#include "workloads.h"

#include <algorithm>

namespace perfbench {
namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finaliser over (seed, stream): independent sub-seeds.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

shmcaffe::core::DistTrainOptions Workload::options(std::uint64_t seed) const {
  shmcaffe::core::DistTrainOptions o;
  o.workers = workers;
  o.group_size = group_size;
  o.batch_size = kBatch;
  o.epochs = epochs;
  o.model_family = model;
  o.input.channels = 1;
  o.input.height = side;
  o.input.width = side;
  o.input.classes = 8;
  o.train_data.channels = 1;
  o.train_data.height = side;
  o.train_data.width = side;
  o.train_data.classes = 8;
  o.train_data.size = train_samples;
  o.train_data.noise_stddev = noise;
  o.train_data.seed = mix(seed, 1);
  // The held-out split is the same for every seed, so the test metrics
  // compare trained models rather than test sets.
  o.test_data = o.train_data;
  o.test_data.size = 512;
  o.test_data.seed = 0x7e57;
  o.seed = mix(seed, 2);  // initialisation; the loaders' shuffle derives from it
  o.solver.base_lr = base_lr;
  return o;
}

std::int64_t Workload::target_iterations_per_worker() const {
  const std::int64_t per_epoch =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(train_samples) / kBatch);
  return std::max<std::int64_t>(1, per_epoch / workers) * epochs;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {.name = "solo-vgg",
       .why = "1 worker, mini_vgg 24x24: single-worker baseline of seasgd-vgg; the only "
              "workload where the work pool has one submitter",
       .workers = 1, .model = "mini_vgg", .side = 24, .noise = 0.3,
       .accuracy_floor = 0.9, .replay_iterations = 60, .eval_repeats = 5},
      {.name = "seasgd-vgg",
       .why = "4 ShmCaffe-A workers, mini_vgg 24x24: compute-bound (dl ~99% of the timed "
              "phases); four submitters contend for the work pool",
       .workers = 4, .model = "mini_vgg", .side = 24, .noise = 0.3, .epochs = 2,
       .accuracy_floor = 0.45, .replay_iterations = 30, .eval_repeats = 5},
      {.name = "seasgd-wide",
       .why = "4 ShmCaffe-A workers, FC-only mlp 64x64: the SMB exchange (T1 pin, T2, "
              "T.A1-A4 flush) is ~30% of the timed phases",
       .workers = 4, .model = "mlp", .side = 64, .noise = 1.0, .train_samples = 8192,
       .epochs = 2, .accuracy_floor = 0.7, .replay_iterations = 150, .eval_repeats = 5},
      {.name = "hybrid-wide",
       .why = "ShmCaffe-H, 2 groups x 2 workers, mlp 64x64: allreduce + broadcast are "
              "~37% of the timed phases; only the 2 roots touch the SMB",
       .workers = 4, .group_size = 2, .model = "mlp", .side = 64, .noise = 1.0,
       .train_samples = 8192, .epochs = 2, .accuracy_floor = 0.7,
       .replay_iterations = 150, .eval_repeats = 5},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
