// Parallel-execution micro-benchmark: real (harness) wall-clock of the
// distributed-training simulator at 1/2/4/8 threads on the Figure 9(a)
// workload, printed as a table and, with --out=PATH, written as JSON so
// the perf trajectory of the thread-pool execution engine can be tracked
// run over run.
//
// Unlike the fig* benches, which report *simulated* seconds (identical at
// every thread count by design), this harness measures how long the
// simulator itself takes — the quantity the thread pool exists to shrink.
//
//   micro_parallel [--dataset=kdd12] [--model=lr] [--workers=10]
//                  [--epochs=3] [--out=PATH]

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"

namespace {

using namespace sketchml;

struct Sample {
  int threads = 1;
  double wall_seconds = 0.0;
  // The simulation itself, which must not depend on the thread count.
  uint64_t bytes_up = 0;
  uint64_t bytes_down = 0;
  uint64_t messages = 0;
  double network_seconds = 0.0;  // Modeled.
  double train_loss = 0.0;

  bool SameSimulation(const Sample& other) const {
    return bytes_up == other.bytes_up && bytes_down == other.bytes_down &&
           messages == other.messages &&
           network_seconds == other.network_seconds &&
           train_loss == other.train_loss;
  }
};

}  // namespace

int main(int argc, char** argv) {
  auto parsed = common::FlagParser::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const common::FlagParser& flags = *parsed;
  const std::string dataset = flags.GetString("dataset", "kdd12");
  const std::string model = flags.GetString("model", "lr");
  const std::string out_path = flags.GetString("out", "");
  const int workers = static_cast<int>(*flags.GetInt("workers", 10));
  const int epochs = static_cast<int>(*flags.GetInt("epochs", 3));

  bench::Banner("Thread-pool execution engine: simulator wall-clock",
                "perf tracking (not a paper figure); fig09(a) workload");
  // Wall-clock speedup is bounded by the cores the host actually grants
  // (cgroup quotas included), so record it next to the measurements.
  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("host hardware_concurrency: %u\n", host_cores);
  auto workload = bench::MakeWorkload(dataset, model);

  std::vector<Sample> samples;
  for (const int threads : {1, 2, 4, 8}) {
    auto config = bench::DefaultTrainerConfig();
    config.evaluate_test_loss = false;
    config.num_threads = threads;
    common::Stopwatch watch;
    const auto stats = bench::Train(workload, "sketchml",
                                    bench::Cluster2For(dataset, workers),
                                    config, epochs);
    Sample sample;
    sample.threads = threads;
    sample.wall_seconds = watch.ElapsedSeconds();
    for (const auto& s : stats) {
      sample.bytes_up += s.bytes_up;
      sample.bytes_down += s.bytes_down;
      sample.messages += s.messages;
      sample.network_seconds += s.network_seconds;
      sample.train_loss = s.train_loss;
    }
    samples.push_back(sample);
    std::printf("threads=%d  wall=%.3fs  (%.3fs/epoch)\n", threads,
                sample.wall_seconds, sample.wall_seconds / epochs);
  }
  bench::Rule();

  // Every thread count must replay the identical simulation, broadcast
  // included.
  bool deterministic = true;
  for (const auto& sample : samples) {
    deterministic = deterministic && sample.SameSimulation(samples[0]);
  }
  std::printf("deterministic across thread counts: %s\n",
              deterministic ? "yes" : "NO — BUG");

  const double serial = samples[0].wall_seconds;
  std::printf("speedup at 8 threads: %.2fx\n",
              serial / samples.back().wall_seconds);
  if (out_path.empty()) return deterministic ? 0 : 2;
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"micro_parallel\",\n");
  std::fprintf(out, "  \"workload\": \"%s/%s\",\n", dataset.c_str(),
               model.c_str());
  std::fprintf(out, "  \"workers\": %d,\n", workers);
  std::fprintf(out, "  \"epochs\": %d,\n", epochs);
  std::fprintf(out, "  \"host_cores\": %u,\n", host_cores);
  std::fprintf(out, "  \"deterministic\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(out, "  \"results\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& sample = samples[i];
    std::fprintf(out,
                 "    {\"threads\": %d, \"wall_seconds\": %.6f, "
                 "\"epoch_wall_seconds\": %.6f, \"speedup_vs_serial\": "
                 "%.3f}%s\n",
                 sample.threads, sample.wall_seconds,
                 sample.wall_seconds / epochs, serial / sample.wall_seconds,
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return deterministic ? 0 : 2;
}
