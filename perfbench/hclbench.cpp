// Repo benchmark program: one command per workload (see README.md).
//
//   hclbench --workload kv-uniform|logpi-zipf|graph-txn --seed N
//            --seconds S --trace 0|1 [--nodes N --procs P]
//
// Drives the library through its public API from one host thread
// (HCL_SIM_THREADS=1), so every simulated figure repeats exactly for a
// seed. A run repeats the workload, each time on a fresh Context, until
// --seconds have passed (at least three times), checks every repetition
// against a sequential oracle, and reports medians of the host timings
// (set-up is sampled at least nine times).
// --trace 1 alternates untraced and traced repetitions, then runs the layer
// probes, and reports the per-layer metrics instead.
//
// stdout: "# record {...}" describes the run (config, seed, build, source,
// every simulated figure); the last line is the result object. The exit
// code is non-zero when any oracle or self-check fails.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/graph_store.h"
#include "apps/logpi.h"
#include "core/hcl.h"
#include "lf/cuckoo_map.h"
#include "lf/skiplist_map.h"
#include "serial/serialize.h"
#include "txn/txn.h"

#ifndef HCLBENCH_BUILD
#define HCLBENCH_BUILD "unknown"
#endif

extern char** environ;

namespace {

using namespace hcl;  // NOLINT
using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

double ns_since(WallClock::time_point t0) {
  return std::chrono::duration<double, std::nano>(WallClock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of an ascending sample.
double percentile(const std::vector<sim::Nanos>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += quoted(k) + ": " + num(v);
  }
  return out + "}";
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + num(v[i]);
  return out + "]";
}

/// Pins the calling thread (and the sim threads it starts next) to the
/// allowed CPUs in turn. On a shared machine one CPU can run 20-30% slower
/// than another for seconds at a time; rotating repetitions over CPUs lets
/// the median see all of them instead of whichever one the process got.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
  }

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int nodes = 16;
  int procs = 16;
  /// Corrupts the oracle's expected result, so a run must fail: proves the
  /// check is live (used by the benchmark's own tests).
  bool perturb_oracle = false;

  [[nodiscard]] int ranks() const { return nodes * procs; }
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--nodes") {
      o.nodes = std::stoi(value);
    } else if (flag == "--procs") {
      o.procs = std::stoi(value);
    } else if (flag == "--perturb-oracle") {
      o.perturb_oracle = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.nodes < 2 || o.procs < 1 || o.seconds < 0) {
    throw std::invalid_argument("need --nodes >= 2, --procs >= 1, --seconds >= 0");
  }
  return o;
}

/// Inputs come from --seed only: HCL_* knobs that the library reads from the
/// environment (cache, shm, trace, rebalance, txn policy) are cleared, and
/// the one-thread schedule that makes simulated results repeat is pinned.
void pin_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("HCL_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const auto& name : names) unsetenv(name.c_str());
  setenv("HCL_SIM_THREADS", "1", 1);
}

Context::Config context_config(const Options& o, bool traced, bool shm_pod) {
  Context::Config cfg;
  cfg.num_nodes = o.nodes;
  cfg.procs_per_node = o.procs;
  cfg.seed = o.seed;
  cfg.model.node_memory_budget_bytes = 512LL << 30;
  cfg.trace = obs::TracePolicy{};
  cfg.trace.enabled = traced;
  cfg.trace.max_spans = 0;  // aggregate histograms and sums; keep no records
  cfg.shm = shm::ShmPolicy{};
  if (shm_pod) {
    cfg.shm.enabled = true;
    cfg.shm.pod_nodes = 2;
  }
  return cfg;
}

/// Cache, rebalancing and batching knobs at their off/default values,
/// independent of the environment.
core::ContainerOptions plain_options(bool traced) {
  core::ContainerOptions options;
  options.cache = cache::CachePolicy{};
  options.rebalance = core::RebalancePolicy{};
  options.trace = obs::TracePolicy{};
  options.trace.enabled = traced;
  options.trace.max_spans = 0;
  return options;
}

// ---------------------------------------------------------------------------
// Per-layer counters
// ---------------------------------------------------------------------------

struct LayerTotals {
  std::array<std::int64_t, obs::kNumStages> stage_ns{};
  std::int64_t rpc_spans = 0;  // scalar, shm and bundle requests traced
  std::int64_t handler_span_ns = 0;
  std::int64_t handler_busy_ns = 0;
  std::int64_t bytes = 0;
  std::int64_t rpc_calls = 0;
  std::int64_t rpc_retries = 0;
  std::int64_t bundles = 0;
  std::int64_t bundled_ops = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_stale = 0;
  std::int64_t shm_sends = 0;
  std::int64_t shm_fallbacks = 0;
  std::int64_t txn_commits = 0;
  std::int64_t txn_aborts = 0;
  std::int64_t txn_retries = 0;
};

/// Sums NicCounters and Tracer stage sums over all nodes at every run edge,
/// then zeroes them. The apps call reset_measurement() between phases, which
/// would discard the earlier phases' counts; the run-edge hook (called after
/// each run()'s drain) sees every phase before that reset. Observation only:
/// no workload here reads these counters back (rebalancing, their one
/// reader, is off).
class Harvester {
 public:
  explicit Harvester(Context& ctx)
      : ctx_(ctx), hook_(ctx.register_cache_hook([this] { harvest(); })) {}
  ~Harvester() { ctx_.unregister_cache_hook(hook_); }
  Harvester(const Harvester&) = delete;
  Harvester& operator=(const Harvester&) = delete;

  void clear() { totals_ = LayerTotals{}; }
  [[nodiscard]] const LayerTotals& totals() const { return totals_; }

 private:
  void harvest() {
    obs::Tracer& tracer = ctx_.tracer();
    for (int n = 0; n < ctx_.topology().num_nodes(); ++n) {
      auto& c = ctx_.fabric().nic(n).counters();
      totals_.handler_busy_ns += c.handler_busy_ns.load();
      totals_.bytes += c.total_bytes.load();
      totals_.rpc_calls += c.rpc_count.load();
      totals_.rpc_retries += c.rpc_retries.load();
      totals_.bundles += c.rpc_batches.load();
      totals_.bundled_ops += c.rpc_batched_ops.load();
      totals_.cache_hits += c.cache_hit_count.load();
      totals_.cache_misses += c.cache_miss_count.load();
      totals_.cache_stale += c.cache_stale_count.load();
      totals_.shm_sends += c.shm_sends.load();
      totals_.shm_fallbacks += c.shm_ring_full_fallbacks.load();
      totals_.txn_commits += c.txn_commits.load();
      totals_.txn_aborts += c.txn_aborts.load();
      totals_.txn_retries += c.txn_retries.load();
      c.reset();
      if (!tracer.enabled()) continue;
      totals_.handler_span_ns += tracer.accounted_handler_ns(n);
      for (auto kind : {obs::SpanKind::kScalar, obs::SpanKind::kShm,
                        obs::SpanKind::kBatch}) {
        totals_.rpc_spans += tracer.span_count(n, kind);
        for (std::size_t s = 0; s < obs::kNumStages; ++s) {
          totals_.stage_ns[s] +=
              tracer.stage_sum_ns(n, kind, static_cast<obs::Stage>(s));
        }
      }
    }
    tracer.reset();
  }

  Context& ctx_;
  LayerTotals totals_;
  std::uint64_t hook_;
};

// ---------------------------------------------------------------------------
// One repetition of a workload
// ---------------------------------------------------------------------------

struct Rep {
  double wall_s = 0;
  std::uint64_t app_ops = 0;  // also the ops attempted
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;
  /// Every simulated figure of the repetition, sim_write_s and sim_read_s
  /// among them; must repeat exactly.
  std::map<std::string, double> sim;
  LayerTotals layers;

  void expect(bool ok, const std::string& what) {
    if (!ok && mismatches.size() < 8) mismatches.push_back(what);
    if (!ok) ++failed;
  }
};

// ---------------------------------------------------------------------------
// Layer probes: one rank times repeated calls into each layer's public
// functions with the workload's own keys and values; nothing else runs.
// ---------------------------------------------------------------------------

template <typename K, typename V>
struct ProbeSet {
  std::vector<K> keys;
  std::vector<V> values;
  std::vector<std::vector<apps::Posting>> queries;  // eval_query inputs
};

constexpr int kProbeRounds = 7;

/// Probe results feed this, so the timed calls cannot be optimised away.
volatile std::uint64_t probe_sink = 0;

/// Median over rounds of (host ns one round took / calls per round).
template <typename Round>
double per_call_ns(std::size_t calls, Round&& round) {
  if (calls == 0) return 0;
  std::vector<double> per;
  for (int r = 0; r < kProbeRounds; ++r) {
    per.push_back(round() / static_cast<double>(calls));
  }
  return median(per);
}

std::int64_t cache_hits_total(Context& ctx) {
  std::int64_t hits = 0;
  for (int n = 0; n < ctx.topology().num_nodes(); ++n) {
    hits += ctx.fabric().nic(n).counters().cache_hit_count.load();
  }
  return hits;
}

template <typename K, typename V>
std::map<std::string, double> run_probes(const Options& o,
                                         const ProbeSet<K, V>& s, Rep& check) {
  std::map<std::string, double> out;
  std::uint64_t sink = 0;
  const std::size_t n = s.keys.size();

  out["serial.roundtrip_host_ns"] = per_call_ns(n, [&] {
    const auto t0 = WallClock::now();
    for (const V& v : s.values) {
      const auto bytes = serial::pack(v);
      const V back = serial::unpack<V>(bytes);
      sink += bytes.size() + (back == v ? 1 : 0);
    }
    return ns_since(t0);
  });

  out["lf.cuckoo_insert_host_ns"] = per_call_ns(n, [&] {
    lf::CuckooMap<K, V> m;
    const auto t0 = WallClock::now();
    for (std::size_t i = 0; i < n; ++i) sink += m.insert(s.keys[i], s.values[i]);
    return ns_since(t0);
  });
  {
    lf::CuckooMap<K, V> m;
    for (std::size_t i = 0; i < n; ++i) m.insert(s.keys[i], s.values[i]);
    out["lf.cuckoo_find_host_ns"] = per_call_ns(n, [&] {
      V got{};
      const auto t0 = WallClock::now();
      for (const K& k : s.keys) sink += m.find(k, &got);
      return ns_since(t0);
    });
  }
  out["lf.skiplist_insert_host_ns"] = per_call_ns(n, [&] {
    lf::SkipListMap<K, V> m;
    const auto t0 = WallClock::now();
    for (std::size_t i = 0; i < n; ++i) sink += m.insert(s.keys[i], s.values[i]);
    return ns_since(t0);
  });
  {
    lf::SkipListMap<K, V> m;
    for (std::size_t i = 0; i < n; ++i) m.insert(s.keys[i], s.values[i]);
    out["lf.skiplist_find_host_ns"] = per_call_ns(n, [&] {
      V got{};
      const auto t0 = WallClock::now();
      for (const K& k : s.keys) sink += m.find_value(k, &got);
      return ns_since(t0);
    });
  }

  std::vector<std::vector<apps::Posting>> query_copies;
  out["apps.eval_query_host_ns"] = per_call_ns(s.queries.size(), [&] {
    query_copies = s.queries;
    const auto t0 = WallClock::now();
    for (std::size_t q = 0; q < query_copies.size(); ++q) {
      sink += apps::detail::eval_query(std::move(query_copies[q]), q % 2 == 0).size();
    }
    return ns_since(t0);
  });

  Context ctx(context_config(o, /*traced=*/false, /*shm_pod=*/false));
  unordered_map<K, V> m(ctx, plain_options(false));
  core::ContainerOptions cached_options = plain_options(false);
  cached_options.cache.mode = cache::CacheMode::kInvalidate;
  cached_options.cache.capacity = 4096;
  cached_options.cache.ttl_ns = 1'000'000'000;  // leases outlive every round
  unordered_map<K, V> cached(ctx, cached_options);

  out["core.route_host_ns"] = per_call_ns(n * 16, [&] {
    const auto t0 = WallClock::now();
    for (int pass = 0; pass < 16; ++pass) {
      for (const K& k : s.keys) sink += static_cast<std::uint64_t>(m.partition_of(k));
    }
    return ns_since(t0);
  });

  // Rank 0 lives on node 0: keys routed to any other node are remote.
  std::vector<std::size_t> remote;
  for (std::size_t i = 0; i < n; ++i) {
    if (m.partition_of(s.keys[i]) % o.nodes != 0) remote.push_back(i);
  }
  std::vector<std::size_t> one_partition;
  for (std::size_t i : remote) {
    if (m.partition_of(s.keys[i]) == m.partition_of(s.keys[remote.front()])) {
      one_partition.push_back(i);
    }
  }
  check.expect(!remote.empty(), "probes: no sample key is remote from rank 0");

  ctx.run_one(0, [&](sim::Actor& self) {
    out["core.remote_put_host_ns"] = per_call_ns(remote.size(), [&] {
      const auto t0 = WallClock::now();
      for (std::size_t i : remote) sink += m.upsert(s.keys[i], s.values[i]);
      return ns_since(t0);
    });
    out["core.remote_find_host_ns"] = per_call_ns(remote.size(), [&] {
      V got{};
      const auto t0 = WallClock::now();
      for (std::size_t i : remote) sink += m.find(s.keys[i], &got);
      return ns_since(t0);
    });

    for (std::size_t i : remote) cached.upsert(s.keys[i], s.values[i]);
    for (std::size_t i : remote) cached.find(s.keys[i], nullptr);  // warm
    const std::int64_t hits_before = cache_hits_total(ctx);
    out["cache.hit_probe_host_ns"] = per_call_ns(remote.size(), [&] {
      V got{};
      const auto t0 = WallClock::now();
      for (std::size_t i : remote) sink += cached.find(s.keys[i], &got);
      return ns_since(t0);
    });
    check.expect(cache_hits_total(ctx) - hits_before ==
                     static_cast<std::int64_t>(remote.size()) * kProbeRounds,
                 "cache probe: not every timed find was a cache hit");

    txn::TxnCoordinator coord(ctx);
    out["txn.commit_host_ns"] = per_call_ns(one_partition.size(), [&] {
      const auto t0 = WallClock::now();
      for (std::size_t i : one_partition) {
        const Status st = coord.run(self, [&](txn::Txn& t) {
          m.txn_put(t, s.keys[i], s.values[i]);
        });
        check.expect(st.ok(), "txn probe: uncontended commit failed");
      }
      return ns_since(t0);
    });
  });

  out["core.insert_batch_host_ns_per_key"] = per_call_ns(n, [&] {
    unordered_map<K, V> fresh(ctx, plain_options(false));
    double ns = 0;
    ctx.run_one(0, [&](sim::Actor&) {
      const auto t0 = WallClock::now();
      const auto inserted = fresh.insert_batch(s.keys, s.values);
      ns = ns_since(t0);
      sink += static_cast<std::uint64_t>(
          std::count(inserted.begin(), inserted.end(), true));
    });
    return ns;
  });

  // Two ranks on one worker, each stepping past the 500 us clock window:
  // every step parks one fiber and resumes the other.
  constexpr int kSteps = 2000;
  out["sim.fiber_switch_host_ns"] = per_call_ns(2 * kSteps, [&] {
    const auto t0 = WallClock::now();
    ctx.cluster().run_ranks(
        0, 2,
        [](sim::Actor& self) {
          for (int i = 0; i < kSteps; ++i) self.advance(600 * sim::kMicrosecond);
        },
        1);
    return ns_since(t0);
  });

  probe_sink = sink;
  return out;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Rep run(bool traced) = 0;
  /// Host seconds of one untraced set-up (torn down untimed): the Context,
  /// plus for kv-uniform its maps and load phase.
  virtual double setup_seconds() = 0;
  virtual std::map<std::string, double> probe(Rep& check) = 0;
  /// Workload-specific configuration, as a JSON object.
  [[nodiscard]] virtual std::string describe() const = 0;
  /// Digest of the generated inputs: equal seeds give equal digests.
  [[nodiscard]] virtual std::uint64_t input_digest() const = 0;
};

/// A 1 KiB value that names its own key and writer, so every read can be
/// checked without a lookup in the model.
struct KvValue {
  std::uint64_t key = 0;
  std::uint64_t writer = 0;
  std::uint64_t seq = 0;
  std::array<std::uint64_t, 125> payload{};

  friend bool operator==(const KvValue&, const KvValue&) = default;
};
static_assert(sizeof(KvValue) == 1024);

// kv-uniform: each rank inserts fresh keys of its own (one writer per key),
// then looks up keys drawn uniformly from the whole keyspace; even sequence
// numbers live in the cuckoo unordered_map, odd ones in the skiplist map.
class KvUniform final : public Workload {
 public:
  explicit KvUniform(const Options& o)
      : o_(o),
        ranks_(static_cast<std::uint64_t>(o.ranks())) {}

  Rep run(bool traced) override {
    Rep rep;
    Context ctx(context_config(o_, traced, false));
    Harvester harvester(ctx);
    UMap umap(ctx, plain_options(traced));
    SMap smap(ctx, plain_options(traced));
    std::atomic<std::uint64_t> failed{load(ctx, umap, smap)}, wrong{0};
    harvester.clear();

    std::vector<std::vector<sim::Nanos>> put_lat(ranks_), get_lat(ranks_);
    const auto t1 = WallClock::now();
    ctx.reset_measurement();
    ctx.run([&](sim::Actor& self) {
      auto& lat = put_lat[rank_of(self)];
      lat.reserve(kWritesPerRank);
      for (std::uint64_t j = kLoadPerRank; j < kLoadPerRank + kWritesPerRank; ++j) {
        const sim::Nanos start = self.now();
        const bool ok = put(umap, smap, rank_of(self), j);
        lat.push_back(self.now() - start);
        if (!ok) failed.fetch_add(1);
      }
    });
    rep.sim["sim_write_s"] = ctx.elapsed_seconds();
    ctx.reset_measurement();
    ctx.run([&](sim::Actor& self) {
      auto& lat = get_lat[rank_of(self)];
      lat.reserve(kReadsPerRank);
      Rng rng = read_rng(rank_of(self));
      for (std::uint64_t i = 0; i < kReadsPerRank; ++i) {
        const std::uint64_t r = rng.next_below(ranks_);
        const std::uint64_t j = rng.next_below(kLoadPerRank + kWritesPerRank);
        const std::uint64_t k = key(r, j);
        KvValue got;
        bool hit = false;
        const sim::Nanos start = self.now();
        try {
          hit = j % 2 == 0 ? umap.find(k, &got) : smap.find(k, &got);
        } catch (const HclError&) {
          failed.fetch_add(1);
          continue;
        }
        lat.push_back(self.now() - start);
        // Reads run after every write: each key holds its writer's last
        // (and only) version.
        if (!hit || got.key != k || got.writer != r || got.seq != j ||
            got.payload.front() != mix64(k) || got.payload.back() != mix64(k + 124)) {
          wrong.fetch_add(1);
        }
      }
    });
    rep.sim["sim_read_s"] = ctx.elapsed_seconds();
    rep.wall_s = seconds_since(t1);
    rep.layers = harvester.totals();

    // Final state against the sequential model: every key exactly once, in
    // the map its sequence number selects, holding its writer's value.
    std::uint64_t seen = 0, bad = 0;
    const auto visit = [&](bool cuckoo) {
      return [&, cuckoo](const std::uint64_t& k, const KvValue& v) {
        ++seen;
        if (v.writer >= ranks_ || v.seq >= kLoadPerRank + kWritesPerRank ||
            (v.seq % 2 == 0) != cuckoo || v.key != k || !(v == value(v.writer, v.seq))) {
          ++bad;
        }
      };
    };
    umap.for_each(visit(true));
    smap.for_each_ordered(visit(false));
    const std::uint64_t expected =
        ranks_ * (kLoadPerRank + kWritesPerRank) + (o_.perturb_oracle ? 1 : 0);
    rep.expect(seen == expected, "kv: final key count differs from the model");
    rep.expect(bad == 0, "kv: final state differs from the model");
    rep.expect(wrong.load() == 0, "kv: a find returned a wrong or missing value");
    rep.failed += failed.load() + wrong.load();

    rep.app_ops = ranks_ * (kWritesPerRank + kReadsPerRank);
    add_latency(rep, "put", put_lat);
    add_latency(rep, "get", get_lat);
    return rep;
  }

  double setup_seconds() override {
    const auto t0 = WallClock::now();
    Context ctx(context_config(o_, false, false));
    UMap umap(ctx, plain_options(false));
    SMap smap(ctx, plain_options(false));
    load(ctx, umap, smap);
    return seconds_since(t0);
  }

  std::map<std::string, double> probe(Rep& check) override {
    ProbeSet<std::uint64_t, KvValue> s;
    for (std::uint64_t i = 0; i < 256; ++i) {
      const KvValue v = value(i % ranks_, i / ranks_ % kLoadPerRank);
      s.keys.push_back(v.key);
      s.values.push_back(v);
    }
    for (std::uint64_t q = 0; q < 16; ++q) {
      std::vector<apps::Posting> lists(3);
      for (std::uint64_t t = 0; t < 3; ++t) {
        for (std::uint64_t j = 0; j < kLoadPerRank; ++j) {
          lists[t].push_back(key((3 * q + t) % ranks_, j) % (ranks_ * kLoadPerRank));
        }
      }
      s.queries.push_back(std::move(lists));
    }
    return run_probes(o_, s, check);
  }

  [[nodiscard]] std::string describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"ops_per_rank\": %llu, \"writes_per_rank\": %llu, "
                  "\"reads_per_rank\": %llu, \"load_per_rank\": %llu, "
                  "\"value_bytes\": %zu}",
                  static_cast<unsigned long long>(kWritesPerRank + kReadsPerRank),
                  static_cast<unsigned long long>(kWritesPerRank),
                  static_cast<unsigned long long>(kReadsPerRank),
                  static_cast<unsigned long long>(kLoadPerRank), sizeof(KvValue));
    return buf;
  }

  [[nodiscard]] std::uint64_t input_digest() const override {
    std::uint64_t h = 0;
    Rng rng = read_rng(0);
    for (std::uint64_t i = 0; i < 64; ++i) {
      const std::uint64_t r = rng.next_below(ranks_);
      h = mix64(h ^ key(r, rng.next_below(kLoadPerRank + kWritesPerRank)));
    }
    return h;
  }

 private:
  using UMap = unordered_map<std::uint64_t, KvValue>;
  using SMap = map<std::uint64_t, KvValue>;
  static constexpr std::uint64_t kLoadPerRank = 64;
  static constexpr std::uint64_t kWritesPerRank = 128;
  static constexpr std::uint64_t kReadsPerRank = 128;

  bool put(UMap& umap, SMap& smap, std::uint64_t r, std::uint64_t j) const {
    const KvValue v = value(r, j);
    try {
      return j % 2 == 0 ? umap.insert(v.key, v) : smap.insert(v.key, v);
    } catch (const HclError&) {
      return false;
    }
  }

  /// The load phase (part of set-up): each rank's first keys. Returns the
  /// number of inserts that failed.
  std::uint64_t load(Context& ctx, UMap& umap, SMap& smap) const {
    std::atomic<std::uint64_t> failed{0};
    ctx.run([&](sim::Actor& self) {
      for (std::uint64_t j = 0; j < kLoadPerRank; ++j) {
        if (!put(umap, smap, rank_of(self), j)) failed.fetch_add(1);
      }
    });
    return failed.load();
  }

  static std::uint64_t rank_of(const sim::Actor& self) {
    return static_cast<std::uint64_t>(self.rank());
  }

  /// Bijective in (r, j) for a fixed seed, so keys never collide.
  [[nodiscard]] std::uint64_t key(std::uint64_t r, std::uint64_t j) const {
    return mix64(o_.seed ^ mix64(j * ranks_ + r + 1));
  }

  [[nodiscard]] KvValue value(std::uint64_t r, std::uint64_t j) const {
    KvValue v;
    v.key = key(r, j);
    v.writer = r;
    v.seq = j;
    for (std::size_t i = 0; i < v.payload.size(); ++i) v.payload[i] = mix64(v.key + i);
    return v;
  }

  [[nodiscard]] Rng read_rng(std::uint64_t r) const {
    return Rng(mix64(o_.seed ^ 0x6b762d7265616473ULL) ^ (0x9e3779b97f4a7c15ULL * (r + 1)));
  }

  static void add_latency(Rep& rep, const std::string& op,
                          const std::vector<std::vector<sim::Nanos>>& per_rank) {
    std::vector<sim::Nanos> all;
    for (const auto& v : per_rank) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    rep.sim["sim_" + op + "_samples"] = static_cast<double>(all.size());
    rep.sim["sim_" + op + "_p50_us"] = percentile(all, 0.50) / 1e3;
    rep.sim["sim_" + op + "_p999_us"] = percentile(all, 0.999) / 1e3;
  }

  Options o_;
  std::uint64_t ranks_;
};

// logpi-zipf: the Fig 8 app at its default stream with the read cache and
// the shm tier armed.
class LogpiZipf final : public Workload {
 public:
  explicit LogpiZipf(const Options& o) : o_(o) {
    config_.seed = mix64(o.seed ^ 0x6c6f677069ULL);
    // Single-process reference index over the same generated stream.
    const auto ranks = static_cast<sim::Rank>(o.ranks());
    for (sim::Rank r = 0; r < ranks; ++r) {
      const auto lines = apps::detail::logpi_lines(config_, r);
      const std::uint64_t base = static_cast<std::uint64_t>(r) * config_.lines_per_rank;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        for (std::uint64_t token : lines[i]) {
          index_[token].push_back(base + i);
          ++postings_;
        }
      }
    }
    for (sim::Rank r = 0; r < ranks; ++r) {
      const auto queries = apps::detail::logpi_queries(config_, r);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto matched = apps::detail::eval_query(lists_for(queries[q]), q % 2 == 0);
        hits_ += matched.size();
        checksum_ += apps::detail::query_digest(matched);
      }
    }
  }

  Rep run(bool traced) override {
    Rep rep;
    Context ctx(context_config(o_, traced, /*shm_pod=*/true));
    Harvester harvester(ctx);
    core::ContainerOptions options = plain_options(traced);
    options.cache.mode = cache::CacheMode::kInvalidate;
    options.cache.capacity = 4096;

    const auto t1 = WallClock::now();
    const apps::LogpiResult r = apps::run_logpi_hcl(ctx, config_, options);
    rep.wall_s = seconds_since(t1);
    rep.layers = harvester.totals();

    const std::uint64_t ranks = static_cast<std::uint64_t>(o_.ranks());
    rep.failed += static_cast<std::uint64_t>(r.failed_ops);
    rep.expect(r.failed_ops == 0, "logpi: failed ops");
    rep.expect(r.query_checksum == checksum_ + (o_.perturb_oracle ? 1 : 0),
               "logpi: query checksum differs from the reference index");
    rep.expect(r.query_hits == hits_, "logpi: query hits differ from the reference");
    rep.expect(r.postings == postings_, "logpi: posting count differs");
    rep.expect(r.distinct_tokens == index_.size(), "logpi: distinct tokens differ");
    rep.expect(r.queries == ranks * config_.queries_per_rank, "logpi: query count");

    rep.app_ops = r.lines + r.queries;
    rep.sim["sim_write_s"] = r.ingest_seconds;
    rep.sim["sim_read_s"] = r.query_seconds;
    rep.sim["batch_inserted"] = static_cast<double>(r.batch_inserted);
    rep.sim["appends"] = static_cast<double>(r.appends);
    return rep;
  }

  double setup_seconds() override {
    const auto t0 = WallClock::now();
    Context ctx(context_config(o_, false, /*shm_pod=*/true));
    return seconds_since(t0);
  }

  std::map<std::string, double> probe(Rep& check) override {
    // The hottest posting lists, as the query phase pulls them.
    std::vector<std::pair<std::size_t, std::uint64_t>> by_size;
    for (const auto& [token, posting] : index_) by_size.emplace_back(posting.size(), token);
    std::sort(by_size.rbegin(), by_size.rend());
    ProbeSet<std::uint64_t, apps::Posting> s;
    for (std::size_t i = 0; i < by_size.size() && i < 256; ++i) {
      s.keys.push_back(by_size[i].second);
      s.values.push_back(index_.at(by_size[i].second));
    }
    const auto queries = apps::detail::logpi_queries(config_, 0);
    for (std::size_t q = 0; q < queries.size() && q < 32; ++q) {
      s.queries.push_back(lists_for(queries[q]));
    }
    return run_probes(o_, s, check);
  }

  [[nodiscard]] std::string describe() const override {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"lines_per_rank\": %zu, \"tokens_per_line\": %d, "
                  "\"queries_per_rank\": %zu, \"terms_per_query\": %d, "
                  "\"vocab\": %llu, \"theta\": %.2f, \"flush_lines\": %zu, "
                  "\"cache\": \"invalidate/4096\", \"shm_pod_nodes\": 2}",
                  config_.lines_per_rank, config_.tokens_per_line,
                  config_.queries_per_rank, config_.terms_per_query,
                  static_cast<unsigned long long>(config_.vocab), config_.theta,
                  config_.flush_lines);
    return buf;
  }

  [[nodiscard]] std::uint64_t input_digest() const override {
    std::uint64_t h = 0;
    for (const auto& line : apps::detail::logpi_lines(config_, 0)) {
      for (std::uint64_t token : line) h = mix64(h ^ token);
    }
    return h;
  }

 private:
  [[nodiscard]] std::vector<apps::Posting> lists_for(
      const std::vector<std::uint64_t>& terms) const {
    std::vector<apps::Posting> lists;
    for (std::uint64_t term : terms) {
      const auto it = index_.find(term);
      lists.push_back(it == index_.end() ? apps::Posting{} : it->second);
    }
    return lists;
  }

  Options o_;
  apps::LogpiConfig config_;
  std::unordered_map<std::uint64_t, apps::Posting> index_;
  std::uint64_t postings_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t checksum_ = 0;
};

// graph-txn: the Fig 9 app with default options, four BFS sources per rank.
class GraphTxn final : public Workload {
 public:
  explicit GraphTxn(const Options& o) : o_(o) {
    const auto ranks = static_cast<std::uint64_t>(o.ranks());
    config_.seed = mix64(o.seed ^ 0x6772617068ULL);
    config_.vertices = 32 * ranks;
    // Four BFS sources per rank: the query makespan is a maximum over
    // ranks, and with one source per rank it swings ~8% between seeds.
    config_.bfs_sources = 4 * o.ranks();
    edges_ = apps::detail::graph_edges(config_);
    for (std::uint64_t source : apps::detail::bfs_sources(config_)) {
      const auto seen = apps::detail::khop_reference(edges_, source, config_.khop);
      reached_ += seen.size();
      bfs_checksum_ += apps::detail::bfs_digest(source, seen);
    }
  }

  Rep run(bool traced) override {
    Rep rep;
    Context ctx(context_config(o_, traced, false));
    Harvester harvester(ctx);

    const auto t1 = WallClock::now();
    const apps::GraphResult g = apps::run_graph_hcl(ctx, config_, plain_options(traced));
    rep.wall_s = seconds_since(t1);
    rep.layers = harvester.totals();

    rep.failed += static_cast<std::uint64_t>(g.failed_ops);
    rep.expect(g.failed_ops == 0, "graph: failed ops");
    rep.expect(g.edges == edges_.size(), "graph: edge count");
    rep.expect(g.transferred == g.edges, "graph: transferred != edges");
    rep.expect(g.bfs_checksum == bfs_checksum_ + (o_.perturb_oracle ? 1 : 0),
               "graph: BFS checksum differs from khop_reference");
    rep.expect(g.bfs_reached == reached_, "graph: BFS reach differs from khop_reference");

    const std::uint64_t ranks = static_cast<std::uint64_t>(o_.ranks());
    rep.app_ops = g.vertices + g.edges + ranks * config_.degree_samples +
                  static_cast<std::uint64_t>(config_.bfs_sources);
    rep.sim["sim_write_s"] = g.build_seconds;
    rep.sim["sim_read_s"] = g.query_seconds;
    rep.sim["txn_commits"] = static_cast<double>(g.txn_commits);
    rep.sim["txn_aborts"] = static_cast<double>(g.txn_aborts);
    rep.sim["degree_checksum"] = static_cast<double>(g.degree_checksum % 1000000007);
    return rep;
  }

  double setup_seconds() override {
    const auto t0 = WallClock::now();
    Context ctx(context_config(o_, false, false));
    return seconds_since(t0);
  }

  std::map<std::string, double> probe(Rep& check) override {
    std::unordered_map<std::uint64_t, apps::AdjList> adj;
    for (apps::EdgeId e : edges_) {
      adj[apps::edge_u(e)].push_back(apps::edge_v(e));
      adj[apps::edge_v(e)].push_back(apps::edge_u(e));
    }
    ProbeSet<std::uint64_t, apps::AdjList> s;
    for (std::uint64_t v = 0; v < config_.vertices && s.keys.size() < 256; ++v) {
      s.keys.push_back(v);
      s.values.push_back(adj[v]);
    }
    for (std::size_t q = 0; q + 3 <= s.values.size() && s.queries.size() < 32; q += 3) {
      s.queries.push_back({s.values[q], s.values[q + 1], s.values[q + 2]});
    }
    return run_probes(o_, s, check);
  }

  [[nodiscard]] std::string describe() const override {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"vertices\": %llu, \"edges\": %zu, \"avg_degree\": %.1f, "
                  "\"bfs_sources\": %d, \"khop\": %d, \"degree_samples\": %zu, "
                  "\"drainers_per_node\": %d, \"edges_per_txn\": %zu}",
                  static_cast<unsigned long long>(config_.vertices), edges_.size(),
                  config_.avg_degree, config_.bfs_sources, config_.khop,
                  config_.degree_samples, config_.drainers_per_node,
                  config_.edges_per_txn);
    return buf;
  }

  [[nodiscard]] std::uint64_t input_digest() const override {
    std::uint64_t h = 0;
    for (apps::EdgeId e : edges_) h = mix64(h ^ e);
    return h;
  }

 private:
  Options o_;
  apps::GraphConfig config_;
  std::vector<apps::EdgeId> edges_;
  std::uint64_t reached_ = 0;
  std::uint64_t bfs_checksum_ = 0;
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "kv-uniform") return std::make_unique<KvUniform>(o);
  if (o.workload == "logpi-zipf") return std::make_unique<LogpiZipf>(o);
  if (o.workload == "graph-txn") return std::make_unique<GraphTxn>(o);
  throw std::invalid_argument("unknown workload '" + o.workload +
                              "' (kv-uniform, logpi-zipf, graph-txn)");
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> end_to_end(const Rep& first, const std::vector<double>& setup,
                               const std::vector<double>& wall) {
  const double write_s = first.sim.at("sim_write_s");
  const double read_s = first.sim.at("sim_read_s");
  return {
      {"setup_s", median(setup), "s"},
      {"host_wall_s", median(wall), "s"},
      {"host_max_rss_mb", max_rss_mb(), "MB"},
      {"sim_ops_per_s",
       ratio(static_cast<double>(first.app_ops), write_s + read_s),
       "1/s"},
      {"sim_write_s", write_s, "s"},
      {"sim_read_s", read_s, "s"},
  };
}

std::vector<Metric> per_layer(const Rep& traced, double overhead_pct,
                              const std::map<std::string, double>& probes) {
  const LayerTotals& t = traced.layers;
  const double spans = static_cast<double>(t.rpc_spans);
  const auto stage = [&](obs::Stage s) {
    return ratio(static_cast<double>(t.stage_ns[static_cast<std::size_t>(s)]), spans);
  };
  const double app_ops = static_cast<double>(traced.app_ops);
  const double lookups = static_cast<double>(t.cache_hits + t.cache_misses);
  std::vector<Metric> out = {
      {"rpc.inject_ns_per_op", stage(obs::Stage::kInject), "ns"},
      {"fabric.wire_ns_per_op", stage(obs::Stage::kWire), "ns"},
      {"fabric.queue_ns_per_op", stage(obs::Stage::kQueue), "ns"},
      {"fabric.dispatch_ns_per_op", stage(obs::Stage::kDispatch), "ns"},
      {"core.handler_ns_per_op", stage(obs::Stage::kHandler), "ns"},
      {"fabric.pull_ns_per_op", stage(obs::Stage::kPull), "ns"},
      {"rpc.traced_requests", spans, "count"},
      {"fabric.bytes_per_app_op", ratio(static_cast<double>(t.bytes), app_ops), "B"},
      {"rpc.calls_per_app_op", ratio(static_cast<double>(t.rpc_calls), app_ops), "ratio"},
      {"rpc.batch_ops_per_bundle",
       ratio(static_cast<double>(t.bundled_ops), static_cast<double>(t.bundles)), "ratio"},
      {"rpc.bundles", static_cast<double>(t.bundles), "count"},
      {"rpc.retries", static_cast<double>(t.rpc_retries), "count"},
      {"cache.lookups", lookups, "count"},
      {"cache.hit_ratio", ratio(static_cast<double>(t.cache_hits), lookups), "ratio"},
      {"cache.stale_reads", static_cast<double>(t.cache_stale), "count"},
      {"shm.send_share",
       ratio(static_cast<double>(t.shm_sends), static_cast<double>(t.shm_sends + t.rpc_calls)),
       "ratio"},
      {"shm.sends", static_cast<double>(t.shm_sends), "count"},
      {"shm.ring_full_fallbacks", static_cast<double>(t.shm_fallbacks), "count"},
      {"txn.commits", static_cast<double>(t.txn_commits), "count"},
      {"txn.aborts_per_commit",
       ratio(static_cast<double>(t.txn_aborts), static_cast<double>(t.txn_commits)), "ratio"},
      {"txn.retries", static_cast<double>(t.txn_retries), "count"},
      {"obs.handler_reconcile_pct",
       100.0 * ratio(std::fabs(static_cast<double>(t.handler_span_ns - t.handler_busy_ns)),
                     static_cast<double>(t.handler_busy_ns)),
       "%"},
      {"obs.trace_overhead_pct", overhead_pct, "%"},
  };
  for (const auto& [name, value] : probes) out.push_back({name, value, "ns"});
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += quoted(m.name) + ": {\"value\": " + num(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}";
}

/// Share of an untraced run spent sampling set-up.
constexpr double kSetupShare = 0.2;

int run(const Options& o) {
  std::unique_ptr<Workload> workload = make_workload(o);
  const auto start = WallClock::now();
  std::vector<Rep> reps, traced;
  const std::size_t min_reps = o.trace ? 2 : 3;
  CpuRotation cpus;
  // Untraced runs sample set-up between the repetitions, for about a fifth
  // of the run: its median then spans the same stretch of machine time as
  // the repetitions', not one burst that a noisy neighbour can skew.
  std::vector<double> setup;
  double setup_spent = 0;
  const auto sample_setup = [&] {
    const auto t0 = WallClock::now();
    setup.push_back(workload->setup_seconds());
    setup_spent += seconds_since(t0);
  };
  while (reps.size() < min_reps || seconds_since(start) < o.seconds) {
    cpus.next();
    reps.push_back(workload->run(false));
    if (o.trace) {
      traced.push_back(workload->run(true));
      continue;
    }
    while (setup_spent < kSetupShare * seconds_since(start)) sample_setup();
  }
  while (!o.trace && setup.size() < 9) sample_setup();
  std::vector<double> wall;
  for (const Rep& r : reps) wall.push_back(r.wall_s);

  Rep checks;  // run-level self-checks
  for (const Rep& r : reps) {
    checks.expect(r.sim == reps.front().sim,
                  "simulated figures differ between repetitions");
  }
  std::map<std::string, double> probes;
  double overhead_pct = 0;
  if (o.trace) {
    std::vector<double> traced_wall;
    for (const Rep& r : traced) {
      traced_wall.push_back(r.wall_s);
      checks.expect(r.sim == reps.front().sim,
                    "traced simulated figures differ from the untraced run");
      const double busy = static_cast<double>(r.layers.handler_busy_ns);
      checks.expect(std::fabs(static_cast<double>(r.layers.handler_span_ns) - busy) <=
                        0.01 * busy,
                    "tracer handler stage sum does not reconcile with handler_busy_ns");
    }
    overhead_pct = 100.0 * (ratio(median(traced_wall), median(wall)) - 1.0);
    probes = workload->probe(checks);
  }

  std::uint64_t attempted = 0, failed = checks.failed;
  std::vector<std::string> mismatches = checks.mismatches;
  for (const auto* set : {&reps, &traced}) {
    for (const Rep& r : *set) {
      attempted += r.app_ops;
      failed += r.failed;
      for (const auto& m : r.mismatches) {
        if (mismatches.size() < 8) mismatches.push_back(m);
      }
    }
  }
  const bool correct = mismatches.empty() && failed == 0;

  const char* source = std::getenv("HCLBENCH_SOURCE");
  const char* commit = std::getenv("HCLBENCH_COMMIT");
  std::string mismatch_list = "[";
  for (std::size_t i = 0; i < mismatches.size(); ++i) {
    mismatch_list += (i ? ", " : "") + quoted(mismatches[i]);
  }
  mismatch_list += "]";
  std::printf(
      "# record {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"topology\": {\"nodes\": %d, \"procs_per_node\": %d, \"ranks\": %d}, "
      "\"hcl_sim_threads\": %s, \"build\": %s, \"compiler\": %s, \"source\": %s, "
      "\"commit\": %s, "
      "\"config\": %s, \"input_digest\": \"%016llx\", \"reps\": %zu, "
      "\"setup_samples_s\": %s, \"rep_host_wall_s\": %s, \"sim\": %s, "
      "\"mismatches\": %s}\n",
      quoted(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      num(o.seconds).c_str(), o.trace ? 1 : 0, o.nodes, o.procs, o.ranks(),
      quoted(std::getenv("HCL_SIM_THREADS")).c_str(), quoted(HCLBENCH_BUILD).c_str(),
      quoted(__VERSION__).c_str(), quoted(source != nullptr ? source : "unknown").c_str(),
      quoted(commit != nullptr ? commit : "none").c_str(),
      workload->describe().c_str(),
      static_cast<unsigned long long>(workload->input_digest()), reps.size(),
      json_list(setup).c_str(), json_list(wall).c_str(),
      json_map(reps.front().sim).c_str(),
      mismatch_list.c_str());

  const std::vector<Metric> metrics = o.trace
                                          ? per_layer(traced.back(), overhead_pct, probes)
                                          : end_to_end(reps.front(), setup, wall);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  pin_environment();
  // One malloc arena: the run-to-run peak RSS and host times otherwise
  // depend on which per-thread arena the short-lived sim threads land in.
  mallopt(M_ARENA_MAX, 1);
  // Keep freed memory in the heap: a fresh Context then reuses pages a
  // torn-down one faulted in, so host times measure the library's work,
  // not a varying number of kernel page faults (0.25-1.4 M minor faults per
  // hundred logpi set-ups otherwise, which made set-up times bimodal).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, -1);
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hclbench: %s\n", e.what());
    return 2;
  }
}
