// sos_campaign — CLI front end for the campaign engine.
//
//   sos_campaign list
//       Registered figures (id, bench binary, default trials) and built-in
//       campaign names.
//   sos_campaign run <spec> [flags]
//       <spec> is a spec file path, a registered figure id, or "all" (the
//       whole figure suite). Computes pending points against the store,
//       serves the rest warm, writes final outputs.
//       Flags: --store=DIR (default campaign-store/<name>), --results=DIR
//       (default results), and the usual parameter overrides --n --sos
//       --filters --pb --mc-trials --mc-walks --seed. Sweep points are
//       checkpointed in batches of 16, figures one at a time.
//       --abort-after=N is a crash-test hook: the process SIGKILLs itself
//       after N checkpoints, so resume behavior can be exercised end to end.
//       --distributed executes the points out of process, over TCP serve
//       workers (--local-workers forked loopback ones, plus any external
//       `sos_campaign serve` processes that connect): heartbeat liveness,
//       a per-point --point-deadline, partition-tolerant charging,
//       byte-identical store. Worker crashes/hangs are retried with backoff
//       and, past --max-retries, quarantined so the campaign completes
//       degraded instead of dying. Chaos flags (--chaos-*) inject worker
//       faults for testing the fault handling itself. The transport is
//       authenticated (--key-file on both sides; default key for loopback),
//       and the coordinator journals its charge state so a killed
//       coordinator restarted with --resume (same --listen-port) recovers
//       the run.
//   sos_campaign serve --connect=HOST:PORT
//       One remote worker: registers with a --distributed coordinator,
//       computes assigned points, streams results, heartbeats.
//   sos_campaign fsck <store-dir>
//       Integrity scan: validates every store object's container and
//       checksum, moves damaged objects to quarantine/<digest>.corrupt and
//       reports them, so the next run recomputes exactly those points.
//   sos_campaign optimize <spec|default> [flags]
//       Pareto design-space search (docs/OPTIMIZER.md): runs the spec's
//       searcher (exhaustive branch-and-bound or simulated annealing),
//       then validates every frontier winner with a Monte Carlo campaign
//       through the shared result store, so reruns are warm and a killed
//       validation resumes. --search-only skips validation (winners stay
//       pending, exit 2); --status classifies winners against the store
//       without computing; --distributed validates in forked loopback
//       workers with deadline/retry/quarantine (chaos flags apply).
//   sos_campaign status <store-dir>
//       Completed/pending/quarantined point counts from the manifest +
//       object files + quarantine records.
//   sos_campaign clean <store-dir>
//       Removes the manifest, every stored result object and every
//       quarantine record.
//
// Exit codes (scriptable contract, also shown by `sos_campaign help`):
//   0  success; status: campaign complete
//   1  hard error (bad spec, missing manifest, I/O failure)
//   2  usage error; status: pending points remain
//   3  quarantined points present (run completed degraded / status sees
//      quarantine records / fsck found or reported corrupt objects)
//   4  fleet unreachable (no worker registered with a --distributed
//      coordinator in time / serve could not reach its coordinator)
//   5  store corrupt (output assembly or status hit an object that failed
//      integrity verification; run fsck, then rerun to recompute)
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "common/cli.h"
#include "common/strings.h"

namespace {

using namespace sos;  // NOLINT: CLI-local brevity

int usage(std::FILE* out) {
  std::fprintf(out,
               "usage: sos_campaign list\n"
               "       sos_campaign run <spec-file|figure-id|all> "
               "[--store=DIR] [--results=DIR]\n"
               "                    [--abort-after=N] [--n=..] [--sos=..]\n"
               "                    [--filters=..] [--pb=..] [--mc-trials=..] "
               "[--mc-walks=..] [--seed=..]\n"
               "                    [--distributed] [--local-workers=N] "
               "[--points-per-assign=N]\n"
               "                    [--point-deadline=SECONDS] "
               "[--max-retries=N]\n"
               "                    [--backoff-base=SECONDS] "
               "[--backoff-max=SECONDS]\n"
               "                    [--chaos-sigkill=P] [--chaos-hang=P] "
               "[--chaos-bad-exit=P]\n"
               "                    [--chaos-truncate=P] [--chaos-seed=N] "
               "[--chaos-max-fires=N]\n"
               "                    [--listen-port=PORT] "
               "[--heartbeat-interval=SECONDS]\n"
               "                    [--heartbeat-timeout=SECONDS] "
               "[--registration-timeout=SECONDS]\n"
               "                    [--chaos-net-drop=P] "
               "[--chaos-net-partition=P] [--chaos-net-torn=P]\n"
               "                    [--chaos-net-duplicate=P] "
               "[--chaos-net-partition-s=SECONDS]\n"
               "                    [--chaos-coordinator-kill=P] "
               "[--chaos-object-bitflip=P]\n"
               "                    [--key-file=PATH] [--resume]\n"
               "       sos_campaign serve --connect=HOST:PORT "
               "[--heartbeat-interval=SECONDS]\n"
               "                    [--connect-timeout=SECONDS] "
               "[--max-reconnects=N] [--chaos-*]\n"
               "                    [--key-file=PATH]\n"
               "       sos_campaign fsck <store-dir>\n"
               "       sos_campaign optimize <spec-file|default> "
               "[--store=DIR] [--results=DIR]\n"
               "                    [--search-only] [--status] "
               "[--validate-trials=N] [--seed=N]\n"
               "                    [--distributed] [--local-workers=N] "
               "[--points-per-assign=N]\n"
               "                    [--point-deadline=SECONDS] "
               "[--max-retries=N] [--backoff-*]\n"
               "                    [--chaos-*]\n"
               "       sos_campaign status <store-dir>\n"
               "       sos_campaign clean <store-dir>\n"
               "\n"
               "exit codes:\n"
               "  0  success; status/optimize: campaign complete, frontier "
               "validated\n"
               "  1  hard error (bad spec, missing manifest, I/O failure)\n"
               "  2  usage error; status/optimize: pending points or "
               "unvalidated winners\n"
               "  3  quarantined points present (degraded run / status sees\n"
               "     quarantine records / optimize winner quarantined / fsck "
               "found or\n"
               "     reported corrupt objects)\n"
               "  4  fleet unreachable (coordinator saw no worker register "
               "in time /\n"
               "     serve could not reach its coordinator)\n"
               "  5  store corrupt (an object failed integrity verification; "
               "run fsck,\n"
               "     then rerun to recompute the damaged points)\n");
  return out == stdout ? 0 : 2;
}

/// Scriptable exit code for quarantine presence (documented in usage()).
constexpr int kExitQuarantined = 3;
constexpr int kExitPending = 2;
/// Scriptable exit code for integrity failures (documented in usage()).
constexpr int kExitStoreCorrupt = 5;

int reject_unused(const common::Args& args) {
  const auto unused = args.unused_keys();
  if (unused.empty()) return 0;
  std::fprintf(stderr, "unknown flag(s):");
  for (const auto& key : unused) std::fprintf(stderr, " --%s", key.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int cmd_list() {
  std::printf("registered figures (usable as 'sos_campaign run <id>'):\n");
  std::printf("  %-14s %-28s %s\n", "id", "bench binary", "default trials");
  for (const auto& entry : campaign::figure_registry())
    std::printf("  %-14s %-28s %d\n", entry.id, entry.bench_name,
                entry.default_mc_trials);
  std::printf("\nbuilt-in campaigns:\n");
  std::printf("  all            every registered figure (the run_all.sh "
              "suite)\n");
  std::printf("\nanything else is treated as a spec file path; see "
              "docs/CAMPAIGNS.md for the format.\n");
  return 0;
}

/// Applies the standard parameter-override flags on top of a loaded spec.
void apply_overrides(const common::Args& args, campaign::ScenarioSpec& spec) {
  spec.total_overlay =
      static_cast<int>(args.get_int("n", spec.total_overlay));
  spec.sos_nodes = static_cast<int>(args.get_int("sos", spec.sos_nodes));
  spec.filters = static_cast<int>(args.get_int("filters", spec.filters));
  spec.p_break = args.get_double("pb", spec.p_break);
  spec.mc_trials = static_cast<int>(args.get_int("mc-trials", spec.mc_trials));
  spec.mc_walks = static_cast<int>(args.get_int("mc-walks", spec.mc_walks));
  spec.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(spec.seed)));
}

campaign::ScenarioSpec resolve_spec(const std::string& target,
                                    const common::Args& args) {
  campaign::ScenarioSpec spec;
  if (std::filesystem::exists(target)) {
    spec = campaign::ScenarioSpec::parse_file(target);
  } else if (target == "all") {
    spec = campaign::suite_spec(experiments::Params{});
  } else if (campaign::find_figure(target) != nullptr) {
    spec = campaign::figure_spec(target, experiments::Params{});
  } else {
    throw std::invalid_argument(
        "unknown campaign '" + target +
        "' (accepted: a spec file path, a registered figure id, or 'all'; "
        "see sos_campaign list)");
  }
  apply_overrides(args, spec);
  spec.validate();
  return spec;
}

/// Prints the report and final outputs; returns the run exit code (0
/// complete, kExitQuarantined degraded).
int finish_run(const campaign::CampaignRunner& runner,
               const campaign::CampaignReport& report,
               const std::string& results_dir) {
  std::printf("  cached: %d, computed: %d", report.cached, report.computed);
  if (report.retried > 0 || report.quarantined > 0)
    std::printf(", retried: %d, quarantined: %d", report.retried,
                report.quarantined);
  std::printf("\n");
  for (const auto& failure : report.failures)
    std::printf("  quarantined: %s (attempts %d: %s)\n", failure.key.c_str(),
                failure.attempts, failure.reason.c_str());
  for (const auto& path : runner.write_outputs(results_dir))
    std::printf("  wrote %s\n", path.c_str());
  if (report.degraded()) {
    std::fprintf(stderr,
                 "sos_campaign: campaign completed DEGRADED (%d point(s) "
                 "quarantined)\n",
                 report.quarantined);
    return kExitQuarantined;
  }
  return 0;
}

/// The --chaos-* fault-injection flags shared by --distributed and serve.
void apply_chaos_flags(const common::Args& args,
                       campaign::ChaosConfig& chaos) {
  chaos.seed = static_cast<std::uint64_t>(
      args.get_int("chaos-seed", static_cast<std::int64_t>(chaos.seed)));
  chaos.sigkill = args.get_double("chaos-sigkill", 0.0);
  chaos.hang = args.get_double("chaos-hang", 0.0);
  chaos.bad_exit = args.get_double("chaos-bad-exit", 0.0);
  chaos.truncate = args.get_double("chaos-truncate", 0.0);
  chaos.net_drop = args.get_double("chaos-net-drop", 0.0);
  chaos.net_partition = args.get_double("chaos-net-partition", 0.0);
  chaos.net_torn = args.get_double("chaos-net-torn", 0.0);
  chaos.net_duplicate = args.get_double("chaos-net-duplicate", 0.0);
  chaos.net_partition_s =
      args.get_double("chaos-net-partition-s", chaos.net_partition_s);
  chaos.coordinator_kill = args.get_double("chaos-coordinator-kill", 0.0);
  chaos.object_bitflip = args.get_double("chaos-object-bitflip", 0.0);
  chaos.max_fires_per_point = static_cast<int>(
      args.get_int("chaos-max-fires", chaos.max_fires_per_point));
}

/// The executor flags `run --distributed` and `optimize --distributed`
/// share: fleet size, shard size, the per-point deadline, retry and chaos.
void apply_pool_flags(const common::Args& args,
                      campaign::RemotePoolOptions& options) {
  options.local_workers =
      static_cast<int>(args.get_int("local-workers", options.local_workers));
  options.points_per_assign = static_cast<int>(
      args.get_int("points-per-assign", options.points_per_assign));
  options.point_deadline_s =
      args.get_double("point-deadline", options.point_deadline_s);
  campaign::RetryPolicy& retry = options.retry;
  retry.max_retries =
      static_cast<int>(args.get_int("max-retries", retry.max_retries));
  retry.backoff_base_s = args.get_double("backoff-base", retry.backoff_base_s);
  retry.backoff_max_s = args.get_double("backoff-max", retry.backoff_max_s);
  apply_chaos_flags(args, options.chaos);
}

int run_distributed(const campaign::ScenarioSpec& spec,
                    const common::Args& args, const std::string& store_dir,
                    const std::string& results_dir) {
  campaign::RemotePoolOptions options;
  options.store_dir = store_dir;
  apply_pool_flags(args, options);
  options.heartbeat_interval_s =
      args.get_double("heartbeat-interval", options.heartbeat_interval_s);
  options.heartbeat_timeout_s =
      args.get_double("heartbeat-timeout", options.heartbeat_timeout_s);
  options.registration_timeout_s =
      args.get_double("registration-timeout", options.registration_timeout_s);
  const std::int64_t port = args.get_int("listen-port", options.listen_port);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "run: bad --listen-port=%lld (accepted: 0..65535)\n",
                 static_cast<long long>(port));
    return 2;
  }
  options.listen_port = static_cast<std::uint16_t>(port);
  options.key_file = args.get_string("key-file", "");
  options.resume = args.get_bool("resume", false);
  if (const int rc = reject_unused(args); rc != 0) return rc;

  campaign::RemoteWorkerPool pool{spec, options};
  std::printf(
      "campaign %s: %zu points, store %s (distributed, %d local workers, "
      "listening on 127.0.0.1:%u)\n",
      spec.name.c_str(), pool.runner().points().size(), store_dir.c_str(),
      options.local_workers, static_cast<unsigned>(pool.port()));
  try {
    const auto report = pool.run();
    return finish_run(pool.runner(), report, results_dir);
  } catch (const campaign::FleetUnreachableError& error) {
    std::fprintf(stderr, "sos_campaign: fleet unreachable: %s\n",
                 error.what());
    return campaign::kExitFleetUnreachable;
  }
}

int cmd_serve(const common::Args& args) {
  const std::string endpoint = args.get_string("connect", "");
  const auto colon = endpoint.rfind(':');
  if (endpoint.empty() || colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    std::fprintf(stderr,
                 "serve needs --connect=HOST:PORT (got '%s')\n",
                 endpoint.c_str());
    return 2;
  }
  campaign::RemoteWorkerConfig config;
  config.host = endpoint.substr(0, colon);
  try {
    const int port = std::stoi(endpoint.substr(colon + 1));
    if (port < 1 || port > 65535) throw std::out_of_range("port");
    config.port = static_cast<std::uint16_t>(port);
  } catch (const std::exception&) {
    std::fprintf(stderr, "serve: bad port in --connect='%s' (accepted: 1..65535)\n",
                 endpoint.c_str());
    return 2;
  }
  config.heartbeat_interval_s =
      args.get_double("heartbeat-interval", config.heartbeat_interval_s);
  config.connect_timeout_s =
      args.get_double("connect-timeout", config.connect_timeout_s);
  config.max_reconnects =
      static_cast<int>(args.get_int("max-reconnects", config.max_reconnects));
  config.key_file = args.get_string("key-file", "");
  apply_chaos_flags(args, config.chaos);
  config.validate();
  if (const int rc = reject_unused(args); rc != 0) return rc;
  return campaign::run_remote_worker(config);
}

int cmd_run(const common::Args& args) {
  if (args.positional().size() < 2) return usage(stderr);
  auto spec = resolve_spec(args.positional()[1], args);

  const std::string store_dir = args.get_string(
      "store", (std::filesystem::path("campaign-store") / spec.name).string());
  const std::string results_dir = args.get_string("results", "results");
  if (args.get_bool("distributed", false))
    return run_distributed(spec, args, store_dir, results_dir);

  campaign::CampaignOptions options;
  options.store_dir = store_dir;

  const auto abort_after = args.get_int("abort-after", 0);
  if (abort_after > 0) {
    options.checkpoint_hook = [abort_after](int completed) {
      if (completed >= abort_after) {
        std::fprintf(stderr,
                     "sos_campaign: --abort-after=%lld reached, "
                     "SIGKILLing self\n",
                     static_cast<long long>(abort_after));
        ::kill(::getpid(), SIGKILL);
      }
    };
  }
  if (const int rc = reject_unused(args); rc != 0) return rc;

  campaign::CampaignRunner runner{spec, options};
  std::printf("campaign %s: %zu points, store %s\n", spec.name.c_str(),
              runner.points().size(), options.store_dir.c_str());
  const auto report = runner.run();
  return finish_run(runner, report, results_dir);
}

/// `optimize` accepts a spec file path or the literal "default" (the
/// compiled-in OptimizeSpec: the paper's N=10000 system over L in 1..5).
optimize::OptimizeSpec resolve_optimize_spec(const std::string& target,
                                             const common::Args& args) {
  optimize::OptimizeSpec spec;
  if (target == "default") {
    // Defaults are the struct initializers; nothing to load.
  } else if (std::filesystem::exists(target)) {
    spec = optimize::OptimizeSpec::parse_file(target);
  } else {
    throw std::invalid_argument(
        "unknown optimization '" + target +
        "' (accepted: an optimize spec file path or 'default'; see "
        "docs/OPTIMIZER.md for the spec format)");
  }
  spec.validate_trials = static_cast<int>(
      args.get_int("validate-trials", spec.validate_trials));
  spec.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(spec.seed)));
  spec.validate();
  return spec;
}

int cmd_optimize(const common::Args& args) {
  if (args.positional().size() < 2) return usage(stderr);
  const auto spec = resolve_optimize_spec(args.positional()[1], args);

  campaign::OptimizeOptions options;
  options.store_dir = args.get_string(
      "store", (std::filesystem::path("campaign-store") / spec.name).string());
  const std::string results_dir = args.get_string("results", "results");
  options.search_only = args.get_bool("search-only", false);
  if (args.get_bool("distributed", false)) {
    options.distributed.emplace();
    apply_pool_flags(args, *options.distributed);
  }
  const bool status_only = args.get_bool("status", false);
  if (const int rc = reject_unused(args); rc != 0) return rc;

  campaign::OptimizeRunner runner{spec, options};
  std::printf(
      "optimize %s: %zu designs (%s searcher), store %s%s\n",
      spec.name.c_str(), spec.space.size(),
      optimize::OptimizeSpec::searcher_label(spec.resolved_searcher()),
      options.store_dir.c_str(),
      options.distributed ? ", distributed validation" : "");
  campaign::OptimizeReport report;
  try {
    report = status_only ? runner.status() : runner.run();
  } catch (const campaign::FleetUnreachableError& error) {
    std::fprintf(stderr, "sos_campaign: fleet unreachable: %s\n",
                 error.what());
    return campaign::kExitFleetUnreachable;
  }

  std::printf("  frontier: %zu winner(s) from %lld evaluated",
              report.search.frontier.size(), report.search.stats.evaluated);
  if (report.search.stats.pruned > 0)
    std::printf(" (%lld pruned)", report.search.stats.pruned);
  std::printf("\n");
  int rank = 0;
  for (const auto& winner : report.winners) {
    ++rank;
    std::printf("  %2d. %-40s cost %8.1f  P_S %.4f", rank,
                winner.design.point.key().c_str(), winner.design.cost,
                winner.design.p_success());
    if (winner.quarantined) {
      std::printf("  mc QUARANTINED (attempts %d)", winner.attempts);
    } else if (winner.done && spec.validate_trials > 0) {
      std::printf("  mc %.4f [%.4f, %.4f]", winner.p_mc, winner.ci_lo,
                  winner.ci_hi);
    } else {
      std::printf("  mc pending");
    }
    std::printf("\n");
  }
  for (const auto& path : runner.write_outputs(report, results_dir))
    std::printf("  wrote %s\n", path.c_str());

  // Scriptable contract (pinned by tests/campaign/cli_exit_codes_test.sh):
  // 0 validated frontier, kExitPending unvalidated winners remain,
  // kExitQuarantined when any winner's validation was quarantined.
  if (report.degraded()) {
    std::fprintf(stderr,
                 "sos_campaign: optimize completed DEGRADED (%d winner(s) "
                 "quarantined)\n",
                 report.quarantined);
    return kExitQuarantined;
  }
  if (report.pending > 0) {
    std::printf("  %d winner(s) pending validation\n", report.pending);
    return kExitPending;
  }
  return 0;
}

int cmd_status(const common::Args& args) {
  if (args.positional().size() < 2) return usage(stderr);
  if (const int rc = reject_unused(args); rc != 0) return rc;
  const campaign::ResultStore store{args.positional()[1]};
  const auto manifest = store.read_manifest();
  if (!manifest) {
    std::fprintf(stderr, "error: no manifest at %s\n", store.dir().c_str());
    return 1;
  }
  int total = 0;
  int done = 0;
  std::vector<std::string> pending;
  std::vector<std::string> corrupt;
  std::vector<campaign::PointFailure> quarantined;
  for (const auto& line : common::split(*manifest, '\n')) {
    const auto fields = common::split(line, '\t');
    if (fields.size() < 3) {
      // Header line — echo the campaign identity for the operator.
      if (!line.empty()) std::printf("%s\n", std::string(line).c_str());
      continue;
    }
    ++total;
    const std::string digest{fields[1]};
    if (store.has(digest)) {
      ++done;  // an object always wins over a stale quarantine record
    } else if (store.has_corrupt(digest)) {
      // has() just verified the container, so a freshly damaged object was
      // quarantined by that very read; older markers count the same.
      corrupt.push_back(std::string(fields[2]));
    } else if (auto failure = store.load_failure(digest)) {
      quarantined.push_back(std::move(*failure));
    } else {
      pending.push_back(std::string(fields[2]));
    }
  }
  std::printf("done %d/%d", done, total);
  if (!quarantined.empty())
    std::printf(" (%zu quarantined)", quarantined.size());
  if (!corrupt.empty()) std::printf(" (%zu corrupt)", corrupt.size());
  std::printf("\n");
  for (const auto& key : pending) std::printf("  pending: %s\n", key.c_str());
  for (const auto& key : corrupt)
    std::printf("  corrupt: %s (object quarantined; rerun to recompute)\n",
                key.c_str());
  for (const auto& failure : quarantined)
    std::printf("  quarantined: %s (attempts %d: %s)\n", failure.key.c_str(),
                failure.attempts, failure.reason.c_str());
  // Scriptable: 0 complete, kExitPending pending, kExitQuarantined when
  // quarantine records are present (quarantine outranks pending), and
  // kExitStoreCorrupt when integrity damage was found (outranks both —
  // silent corruption is the one state an operator must never miss).
  if (!corrupt.empty()) return kExitStoreCorrupt;
  if (!quarantined.empty()) return kExitQuarantined;
  if (!pending.empty()) return kExitPending;
  return 0;
}

int cmd_fsck(const common::Args& args) {
  if (args.positional().size() < 2) return usage(stderr);
  if (const int rc = reject_unused(args); rc != 0) return rc;
  const campaign::ResultStore store{args.positional()[1]};
  const auto findings = store.fsck();
  const auto objects = store.object_digests().size();
  if (findings.empty()) {
    std::printf("fsck %s: %zu object(s) verified, store clean\n",
                store.dir().c_str(), objects);
    return 0;
  }
  std::printf("fsck %s: %zu object(s) verified, %zu corrupt\n",
              store.dir().c_str(), objects, findings.size());
  for (const auto& finding : findings)
    std::printf("  corrupt: %s (%s, %llu bytes) -> %s\n",
                finding.digest.c_str(), finding.reason.c_str(),
                static_cast<unsigned long long>(finding.bytes),
                store.corrupt_path(finding.digest).c_str());
  std::fprintf(stderr,
               "sos_campaign: fsck found %zu corrupt object(s); damaged "
               "bytes are quarantined — rerun the campaign to recompute "
               "exactly those points\n",
               findings.size());
  // Scriptable contract: 0 clean, kExitQuarantined when anything corrupt
  // was found or remains unhealed.
  return kExitQuarantined;
}

int cmd_clean(const common::Args& args) {
  if (args.positional().size() < 2) return usage(stderr);
  if (const int rc = reject_unused(args); rc != 0) return rc;
  const campaign::ResultStore store{args.positional()[1]};
  std::printf("removed %d files from %s\n", store.clean(),
              store.dir().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const common::Args args{argc, argv};
    if (args.positional().empty()) return usage(stderr);
    const std::string& command = args.positional()[0];
    if (command == "list") {
      if (const int rc = reject_unused(args); rc != 0) return rc;
      return cmd_list();
    }
    if (command == "run") return cmd_run(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "optimize") return cmd_optimize(args);
    if (command == "status") return cmd_status(args);
    if (command == "fsck") return cmd_fsck(args);
    if (command == "clean") return cmd_clean(args);
    if (command == "help") return usage(stdout);
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage(stderr);
  } catch (const campaign::StoreCorruptError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return kExitStoreCorrupt;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
