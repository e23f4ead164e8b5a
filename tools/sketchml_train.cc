// Command-line training driver: runs the distributed-training simulator
// on a synthetic preset or a LIBSVM file with any registered codec.
//
// Examples:
//   sketchml_train --dataset=kdd12 --model=lr --codec=sketchml --epochs=5
//   sketchml_train --dataset=path/to/data.libsvm --codec=adam-double
//       --workers=10 --servers=4 --network=congested --epochs=3
//   sketchml_train --list-codecs

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/obs_flags.h"
#include "common/simd.h"
#include "core/sketchml.h"
#include "dist/trainer.h"
#include "ml/synthetic.h"

namespace {

using namespace sketchml;

constexpr char kUsage[] = R"(sketchml_train [flags]

  --dataset=NAME|PATH   kdd10 | kdd12 | ctr | synthetic | a .libsvm file
                        (default kdd10)
  --model=NAME          lr | svm | linear (default lr)
  --codec=NAME          any registered codec (default sketchml);
                        --list-codecs prints them
  --epochs=N            epochs to run (default 3)
  --workers=N           simulated executors (default 10)
  --servers=N           parameter-server shards (default 1)
  --network=NAME        lab | congested | wan (default lab)
  --net-scale=X         divide bandwidth by X (default 840, matching the
                        synthetic presets' data scale; use 1 for real data)
  --batch-ratio=X       mini-batch fraction (default 0.1)
  --lr=X                learning rate (default 0.05)
  --adam-eps=X          Adam epsilon (default 0.01)
  --seed=N              dataset/codec seed (default 1)
  --threads=N           execution threads for the simulated workers
                        (default 0 = one per hardware core; results are
                        bit-identical at any thread count)
  --crc                 wrap the codec in a CRC-32 frame
  --simd=LEVEL          auto | off | avx2 — kernel dispatch level for the
                        codec hot loops (default auto = best supported;
                        also settable via SKETCHML_SIMD). Output bytes and
                        metrics are bit-identical at every level
  --fault-seed=N        fault-injection seed (default 1); a fixed seed
                        replays the identical fault sequence
  --fault-drop=P        P(gather message attempt lost in transit)
  --fault-corrupt=P     P(attempt arrives corrupted; CRC framing detects
                        it and the sender retries)
  --fault-straggle=P    P(worker straggles for a batch)
  --fault-straggle-factor=X  straggler delay multiplier (default 4)
  --fault-crash=P       P(worker crashes at a batch)
  --fault-crash-batches=K    batches a crashed worker stays down (def. 3)
  --fault-stall=P       P(server shard stalls during a batch's gather)
  --fault-stall-seconds=S    modeled seconds per stall (default 0.05)
  --fault-retries=N     retransmit budget per message (default 3)
  --fault-backoff=S     base retry backoff, doubles per attempt (def 1e-3)
  --min-quorum=K        min surviving workers per batch, capped at the
                        workers the batch sends work to; fewer aborts the
                        run with "unavailable" (default 1)
  --membership-seed=N   membership-decision seed (default 1); a fixed seed
                        replays the identical churn schedule
  --membership-join=P   P(a standby worker joins, per batch boundary)
  --membership-leave=P  P(an active worker scales down; may rejoin later)
  --membership-depart=P P(an active worker leaves permanently)
  --membership-max-workers=K  fleet ceiling / worker-id universe
                        (default 0 = --workers)
  --membership-min-workers=K  scale-down floor (default 1)
  --membership-checkpoint-every=N  seal a checkpoint every N epochs
                        (default 0 = off); a below-quorum epoch then rolls
                        back to the last checkpoint and retries
  --membership-max-rollbacks=N  rollback-and-retry budget per epoch
                        (default 2)
  --obs=MODE            auto | on | off (default auto: record metrics and
                        traces iff an output flag below is given; off
                        never perturbs results — losses and bytes are
                        bit-identical either way)
  --trace-out=PATH      write a Chrome trace_event JSON of every trainer
                        phase, codec call, and modeled network transfer
                        (open in chrome://tracing or ui.perfetto.dev)
  --metrics-out=PATH    write final counters/histograms as JSON lines
  --metrics-format=FMT  jsonl (default) or prom — Prometheus text
                        exposition for the --metrics-out dump (counters,
                        gauges, histograms as cumulative buckets, latency
                        sketches as quantile summaries)
  --series-out=PATH     stream a metrics time-series (JSONL): a run
                        header with every flag + git sha, then one sample
                        per epoch boundary (analyze with sketchml_report)
  --sample-interval=S   also sample every S seconds of wall time while
                        training (default 0 = epoch boundaries only)
  --trace-categories=CSV  record only the listed span categories, e.g.
                        "trainer,network" (default: all; the allowlist is
                        documented in docs/observability.md)
  --trace-sample-every=N  record the per-batch causal tree only for every
                        Nth global batch (default 1 = every batch; epoch
                        and driver phase spans are always recorded)
)";

int Fail(const common::Status& status) {
  std::fprintf(stderr, "error: %s\n%s", status.ToString().c_str(), kUsage);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = common::FlagParser::Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status());
  const common::FlagParser& flags = *parsed;

  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (flags.GetBool("list-codecs", false)) {
    for (const auto& name : core::KnownCodecNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  const std::string dataset_name = flags.GetString("dataset", "kdd10");
  const std::string model = flags.GetString("model", "lr");
  const std::string codec_name = flags.GetString("codec", "sketchml");
  auto epochs = flags.GetInt("epochs", 3);
  auto workers = flags.GetInt("workers", 10);
  auto servers = flags.GetInt("servers", 1);
  auto seed = flags.GetInt("seed", 1);
  auto batch_ratio = flags.GetDouble("batch-ratio", 0.1);
  auto lr = flags.GetDouble("lr", 0.05);
  auto adam_eps = flags.GetDouble("adam-eps", 0.01);
  auto net_scale = flags.GetDouble("net-scale", 840.0);
  auto threads = common::GetThreadsFlag(flags);
  if (!threads.ok()) return Fail(threads.status());
  const std::string network_name = flags.GetString("network", "lab");
  const bool use_crc = flags.GetBool("crc", false);
  if (flags.Has("simd")) {
    const auto simd_status =
        common::simd::SetActiveLevelFromString(flags.GetString("simd", ""));
    if (!simd_status.ok()) return Fail(simd_status);
  }
  auto fault_plan = dist::FaultPlanFromFlags(flags);
  if (!fault_plan.ok()) return Fail(fault_plan.status());
  auto membership_plan = dist::MembershipPlanFromFlags(flags);
  if (!membership_plan.ok()) return Fail(membership_plan.status());
  auto obs_config = obs::ConfigureFromFlags(flags);
  if (!obs_config.ok()) return Fail(obs_config.status());
  for (const auto* result :
       {&epochs, &workers, &servers, &seed}) {
    if (!result->ok()) return Fail(result->status());
  }
  for (const auto* result : {&batch_ratio, &lr, &adam_eps, &net_scale}) {
    if (!result->ok()) return Fail(result->status());
  }
  for (const auto& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "warning: unknown flag --%s ignored\n",
                 unused.c_str());
  }

  // Dataset: preset name or LIBSVM path.
  ml::Dataset all;
  if (dataset_name.find(".libsvm") != std::string::npos ||
      dataset_name.find('/') != std::string::npos) {
    auto loaded = ml::ReadLibSvmFile(dataset_name);
    if (!loaded.ok()) return Fail(loaded.status());
    all = std::move(loaded).value();
  } else {
    ml::SyntheticConfig config =
        ml::PresetFor(dataset_name, static_cast<uint64_t>(*seed));
    config.regression = (model == "linear");
    all = ml::GenerateSynthetic(config);
  }
  auto [train, test] = all.Split(0.25);
  auto loss = ml::MakeLoss(model);
  if (loss == nullptr) {
    return Fail(common::Status::InvalidArgument("unknown model " + model));
  }

  auto codec_result = core::MakeCodec(codec_name);
  if (!codec_result.ok()) return Fail(codec_result.status());
  std::unique_ptr<compress::GradientCodec> codec =
      std::move(codec_result).value();
  if (use_crc) {
    codec = std::make_unique<compress::ChecksummedCodec>(std::move(codec));
  }

  dist::ClusterConfig cluster;
  cluster.num_workers = static_cast<int>(*workers);
  cluster.num_servers = static_cast<int>(*servers);
  dist::NetworkModel base = dist::NetworkModel::Lab1Gbps();
  if (network_name == "congested") {
    base = dist::NetworkModel::Congested10Gbps();
  } else if (network_name == "wan") {
    base = dist::NetworkModel::Wan();
  } else if (network_name != "lab") {
    return Fail(
        common::Status::InvalidArgument("unknown network " + network_name));
  }
  cluster.network = dist::NetworkModel::Scaled(base, *net_scale);
  cluster.faults = *fault_plan;
  cluster.membership = *membership_plan;

  dist::TrainerConfig config;
  config.batch_ratio = *batch_ratio;
  config.learning_rate = *lr;
  config.adam_epsilon = *adam_eps;
  config.num_threads = *threads;
  config.trace_sample_every = obs_config->trace_sample_every;

  std::printf("dataset=%s (%zu train / %zu test, D=%llu, ~%.0f nnz) "
              "model=%s codec=%s W=%lld S=%lld threads=%d\n",
              dataset_name.c_str(), train.size(), test.size(),
              static_cast<unsigned long long>(train.dim()), train.AvgNnz(),
              model.c_str(), codec->Name().c_str(),
              static_cast<long long>(*workers),
              static_cast<long long>(*servers), *threads);

  dist::DistributedTrainer trainer(&train, &test, loss.get(),
                                   std::move(codec), cluster, config);

  // Time-series sampler: the run header records every resolved flag so a
  // series file reproduces its run.
  obs::RunMetadata metadata;
  metadata.Add("dataset", dataset_name);
  metadata.Add("model", model);
  metadata.Add("codec", codec_name);
  metadata.Add("epochs", static_cast<long long>(*epochs));
  metadata.Add("workers", static_cast<long long>(*workers));
  metadata.Add("servers", static_cast<long long>(*servers));
  metadata.Add("network", network_name);
  metadata.Add("net_scale", *net_scale);
  metadata.Add("batch_ratio", *batch_ratio);
  metadata.Add("lr", *lr);
  metadata.Add("adam_eps", *adam_eps);
  metadata.Add("seed", static_cast<long long>(*seed));
  metadata.Add("threads", static_cast<long long>(trainer.num_threads()));
  metadata.Add("crc", use_crc ? "1" : "0");
  // Active SIMD dispatch level and obs flag set: sketchml_report refuses
  // an A/B diff between mismatched dispatch levels unless overridden.
  metadata.Add("simd", common::simd::LevelName(common::simd::ActiveLevel()));
  metadata.Add("obs", obs_config->FlagSet());
  if (fault_plan->Active()) {
    metadata.Add("fault_seed", static_cast<long long>(fault_plan->seed));
    metadata.Add("fault_drop", fault_plan->drop_prob);
    metadata.Add("fault_corrupt", fault_plan->corrupt_prob);
    metadata.Add("fault_straggle", fault_plan->straggle_prob);
    metadata.Add("fault_crash", fault_plan->crash_prob);
    metadata.Add("fault_stall", fault_plan->stall_prob);
    metadata.Add("fault_retries",
                 static_cast<long long>(fault_plan->max_retries));
    metadata.Add("min_quorum", static_cast<long long>(fault_plan->min_quorum));
  }
  if (membership_plan->Active()) {
    metadata.Add("membership_seed",
                 static_cast<long long>(membership_plan->seed));
    metadata.Add("membership_join", membership_plan->join_prob);
    metadata.Add("membership_leave", membership_plan->leave_prob);
    metadata.Add("membership_depart", membership_plan->depart_prob);
    metadata.Add("membership_max_workers",
                 static_cast<long long>(membership_plan->max_workers));
    metadata.Add("membership_min_workers",
                 static_cast<long long>(membership_plan->min_workers));
  }
  if (membership_plan->CheckpointsEnabled()) {
    metadata.Add("membership_checkpoint_every",
                 static_cast<long long>(membership_plan->checkpoint_every));
    metadata.Add("membership_max_rollbacks",
                 static_cast<long long>(membership_plan->max_rollbacks));
  }
  auto sampler = obs::StartSamplerFromConfig(*obs_config,
                                             std::move(metadata));
  if (!sampler.ok()) return Fail(sampler.status());

  std::printf("%6s %10s %12s %12s %10s %10s\n", "epoch", "sim sec",
              "up MB", "msg KB", "train", "test");
  std::vector<dist::EpochStats> all_stats;
  for (int e = 0; e < *epochs; ++e) {
    auto stats = trainer.RunEpoch();
    if (!stats.ok()) return Fail(stats.status());
    std::printf("%6d %10.2f %12.2f %12.1f %10.4f %10.4f\n", stats->epoch,
                stats->TotalSeconds(), stats->bytes_up / 1e6,
                stats->AvgMessageBytes() / 1e3, stats->train_loss,
                stats->test_loss);
    all_stats.push_back(*stats);
    if (*sampler != nullptr) (*sampler)->SampleNow("epoch");
  }

  if (fault_plan->Active()) {
    // One summary line for the whole run; scripts/run_fault_matrix.sh
    // greps these fields, so keep the format stable.
    const dist::EpochStats total = dist::Aggregate(all_stats);
    std::printf("faults: injected=%llu retries=%llu retransmit_bytes=%llu "
                "lost=%llu degraded_batches=%llu\n",
                static_cast<unsigned long long>(total.injected_faults),
                static_cast<unsigned long long>(total.retries),
                static_cast<unsigned long long>(total.retransmit_bytes),
                static_cast<unsigned long long>(total.lost_messages),
                static_cast<unsigned long long>(total.degraded_batches));
  }

  if (membership_plan->Active() || membership_plan->CheckpointsEnabled()) {
    // One summary line for the whole run; scripts/run_churn_matrix.sh
    // greps these fields, so keep the format stable.
    const dist::EpochStats total = dist::Aggregate(all_stats);
    std::printf("membership: joins=%llu leaves=%llu departs=%llu "
                "handoff_bytes=%llu sync_bytes=%llu reconfigs=%llu "
                "rollbacks=%llu active_workers=%d\n",
                static_cast<unsigned long long>(total.joins),
                static_cast<unsigned long long>(total.leaves),
                static_cast<unsigned long long>(total.departs),
                static_cast<unsigned long long>(total.handoff_bytes),
                static_cast<unsigned long long>(total.sync_bytes),
                static_cast<unsigned long long>(total.reconfigurations),
                static_cast<unsigned long long>(total.rollbacks),
                trainer.active_workers());
  }

  if (*sampler != nullptr) {
    const common::Status stop_status = (*sampler)->Stop();
    if (!stop_status.ok()) return Fail(stop_status);
  }
  const common::Status obs_status = obs::WriteObsOutputs(*obs_config);
  if (!obs_status.ok()) return Fail(obs_status);
  if (!obs_config->trace_out.empty()) {
    std::printf("trace written to %s\n", obs_config->trace_out.c_str());
  }
  if (!obs_config->metrics_out.empty()) {
    std::printf("metrics written to %s\n", obs_config->metrics_out.c_str());
  }
  if (!obs_config->series_out.empty()) {
    std::printf("series written to %s\n", obs_config->series_out.c_str());
  }
  return 0;
}
