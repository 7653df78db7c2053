// perfbench — the repository benchmark.
//
// One process per run. It generates a seeded forest, ships it as label
// files, serves it from a ForestIndex behind a net::Server on loopback,
// and drives it through net::QueryClient connections for --seconds,
// checking every answer against tree::NcaIndex under each scheme's
// contract. edit_mix also edits Alstrup trees while they are read
// (IncrementalRelabeler -> DeltaJournal -> ForestIndex::apply_delta).
// Every call into the library is a public one.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE] [--setup-reps R]
//
// --trace 0 prints the end-to-end metrics; --trace 1 measures the first
// half of the window untraced and the second half with spans recorded
// around every library call, then prints the per-layer metrics and writes
// the spans to --trace-out. The last stdout line is always one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it list
// the same metrics (plus the workload-specific ones) by name and unit.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bits/kernels.hpp"
#include "core/alstrup_scheme.hpp"
#include "core/approx_scheme.hpp"
#include "core/delta_journal.hpp"
#include "core/fgnw_scheme.hpp"
#include "core/incremental_relabeler.hpp"
#include "core/kdistance_scheme.hpp"
#include "core/label_store.hpp"
#include "core/peleg_scheme.hpp"
#include "core/tree_scaffold.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "serve/any_scheme.hpp"
#include "serve/forest_index.hpp"
#include "trace.hpp"
#include "tree/generators.hpp"
#include "tree/nca_index.hpp"

using namespace treelab;
using perfbench::now_ns;
using Scope = perfbench::Tracer::Scope;

namespace {

// --- workloads ---------------------------------------------------------------

enum Kind : int { kFgnw = 0, kAlstrup, kPeleg, kApprox, kKdist, kKinds };
constexpr const char* kTag[kKinds] = {"fgnw", "alstrup", "peleg", "approx",
                                      "kdist"};
constexpr std::uint64_t kApproxInvEps = 8;  // eps = 1/8
constexpr std::uint64_t kKdistK = 64;

struct Workload {
  const char* name;
  int static_trees;   ///< read-only trees, schemes cycling through kTag
  int log2_n;         ///< nodes per tree
  std::size_t batch;  ///< requests per QueryClient::query_batch
  int connections;    ///< closed-loop reader connections
  int index_threads;  ///< ForestOptions::threads (batch fan-out)
  std::size_t shards;
  std::size_t cache_bytes_per_shard;
  int edited_trees;  ///< Alstrup trees edited while served (edit_mix)
  double edit_rate;  ///< edits per second, open loop
};

// Why these three: hot_small_batch keeps every attachment cached and sends
// small batches, so per-frame net work and bits decode dominate;
// cold_big_batch misses the cache on nearly every label, so serve's attach
// path and mapped-page reads dominate and net is a small share;
// edit_mix applies deltas beside one reader, so journal fsyncs, the
// copy-on-write apply and cache invalidation compete with reads. Each
// workload's thread budget (connections + server loop + planned fan-out +
// editor) fits a 4-CPU host. Every forest holds all five schemes, so every
// workload reports the same metric set. edit_mix runs 50 edits/s, about a
// third of what its editor sustains beside the reader: an edit costs ~6 ms,
// most of it apply_delta walking its shard's cache list to invalidate.
// The readers use one connection and the index no batch fan-out: on a
// shared 4-vCPU host, two connections to the one server loop make round
// trips depend on how the two clients' batches interleave, and fan-out 2
// depends on a second vCPU being free at each batch; both swung the same
// seed's figures by 20-40% between runs, one connection at fan-out 1 by ~5%.
constexpr Workload kWorkloads[] = {
    {"hot_small_batch", 10, 14, 256, 1, 1, 1, std::size_t{1} << 30, 0, 0},
    {"cold_big_batch", 16, 16, 512, 1, 1, 2, std::size_t{8} << 20, 0, 0},
    {"edit_mix", 5, 14, 256, 1, 1, 4, std::size_t{1} << 28, 2, 50},
};

/// Requests in the seeded pool every reader draws from. Fixed for every
/// workload (never scaled by batch size) so a small batch size cannot
/// shrink the working set into the CPU cache; it covers the forest.
constexpr std::size_t kPoolSize = std::size_t{1} << 20;

/// Journal flush policy of edit_mix: fsync every append, fold a
/// checkpoint every 64 records.
constexpr std::uint64_t kCheckpointRecords = 64;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench/work";
  std::string trace_out;
  int setup_reps = 5;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE] "
               "[--setup-reps R]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && a.seconds > 0 &&
                     a.seconds <= 120;
    } else if (k == "--trace") {
      have_trace = v == "0" || v == "1";
      a.trace = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--setup-reps") {
      a.setup_reps = std::atoi(v.c_str());
      if (a.setup_reps < 1 || a.setup_reps > 9) usage("bad --setup-reps");
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds (0 < S <= 120) and --trace 0|1 "
          "are required");
  return a;
}

// --- statistics --------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The CPUs this process may run on, in id order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.empty())
    for (unsigned c = 0; c < std::max(1U, std::thread::hardware_concurrency()); ++c)
      cpus.push_back(static_cast<int>(c));
  return cpus;
}

/// Pins the calling thread to `cpus` (threads it spawns inherit the set).
/// Each role of the thread budget gets CPUs of its own, so runs place the
/// server loop, its fan-out, the readers and the editor the same way.
void pin_self(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

/// CPU sets of the thread budget's roles.
struct CpuPlan {
  std::vector<int> all;
  std::vector<int> server;  ///< loop thread + its batch fan-out
  std::vector<int> readers; ///< one per connection
  int editor = -1;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- the forest and its oracle -----------------------------------------------

struct TreePlan {
  Kind kind;
  bool edited;
  std::uint64_t seed;
};

std::vector<TreePlan> plan_forest(const Workload& w, std::uint64_t seed) {
  std::vector<TreePlan> p;
  const int total = w.static_trees + w.edited_trees;
  for (int i = 0; i < total; ++i) {
    const bool edited = i >= w.static_trees;
    p.push_back({edited ? kAlstrup : static_cast<Kind>(i % kKinds), edited,
                 seed * 1'000'003 + static_cast<std::uint64_t>(i)});
  }
  return p;
}

tree::Tree generate(const Workload& w, const TreePlan& t) {
  return tree::random_tree(static_cast<tree::NodeId>(1) << w.log2_n, t.seed);
}

/// The seeded request pool plus, per request, the exact distance the
/// oracle computed on the generated tree.
struct Pool {
  std::vector<serve::Request> reqs;
  std::vector<std::uint64_t> dist;
};

Pool make_pool(const Workload& w, const std::vector<TreePlan>& plan,
               std::uint64_t seed) {
  Pool p;
  p.reqs.resize(kPoolSize);
  p.dist.resize(kPoolSize);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const std::uint64_t n = std::uint64_t{1} << w.log2_n;
  for (serve::Request& r : p.reqs) {
    r.tree = static_cast<serve::TreeId>(rng() % plan.size());
    r.u = static_cast<tree::NodeId>(rng() % n);
    r.v = static_cast<tree::NodeId>(rng() % n);
  }
  // One NcaIndex alive at a time keeps the oracle's memory small.
  for (std::size_t t = 0; t < plan.size(); ++t) {
    const tree::Tree tr = generate(w, plan[t]);
    const tree::NcaIndex oracle(tr);
    for (std::size_t i = 0; i < kPoolSize; ++i)
      if (p.reqs[i].tree == t)
        p.dist[i] = oracle.distance(p.reqs[i].u, p.reqs[i].v);
  }
  return p;
}

/// The scheme's contract for exact distance d: fgnw/alstrup/peleg exact,
/// approx in [d, (1 + 1/8) d], kdist exact when d <= k else "not within".
bool answer_ok(Kind k, std::uint64_t d, const serve::QueryResult& r) {
  if (r.status != serve::QueryStatus::kOk) return false;
  switch (k) {
    case kApprox:
      return r.dist.within && r.dist.value >= d &&
             r.dist.value * kApproxInvEps <= d * (kApproxInvEps + 1);
    case kKdist:
      return d <= kKdistK ? r.dist.within && r.dist.value == d
                          : !r.dist.within;
    default:
      return r.dist.within && r.dist.value == d;
  }
}

/// Named span-name tables (span names must outlive the run).
constexpr const char* kEmitSpan[kKinds] = {
    "core.emit.fgnw", "core.emit.alstrup", "core.emit.peleg",
    "core.emit.approx", "core.emit.kdist"};
constexpr const char* kAttachSpan[kKinds] = {
    "serve.attach.fgnw", "serve.attach.alstrup", "serve.attach.peleg",
    "serve.attach.approx", "serve.attach.kdist"};
constexpr const char* kQuerySpan[kKinds] = {
    "bits.attached_query.fgnw", "bits.attached_query.alstrup",
    "bits.attached_query.peleg", "bits.attached_query.approx",
    "bits.attached_query.kdist"};

/// Builds `Scheme` from the scaffold and saves it crash-safely (temp +
/// fsync + rename) as a mappable label file; returns the largest label.
template <typename Scheme, typename... Extra>
std::size_t emit_and_save(Kind kind, const core::TreeScaffold& sc,
                          const std::string& path, const std::string& params,
                          Extra... extra) {
  std::unique_ptr<Scheme> s;
  {
    const Scope sp(kEmitSpan[kind]);
    s = std::make_unique<Scheme>(sc, extra...);
  }
  std::size_t max_bits = 0;
  for (std::size_t i = 0; i < s->labels().size(); ++i)
    max_bits = std::max(max_bits, s->labels().label_bits(i));
  const Scope sv("core.save");
  core::LabelStore::save_file(path, kTag[kind], s->labels(), params, true);
  return max_bits;
}

std::size_t emit_and_save(Kind kind, const core::TreeScaffold& sc,
                          const std::string& path) {
  switch (kind) {
    case kFgnw:
      return emit_and_save<core::FgnwScheme>(kind, sc, path, "");
    case kAlstrup:
      return emit_and_save<core::AlstrupScheme>(kind, sc, path, "");
    case kPeleg:
      return emit_and_save<core::PelegScheme>(kind, sc, path, "");
    case kApprox:
      return emit_and_save<core::ApproxScheme>(
          kind, sc, path, "inv_eps=" + std::to_string(kApproxInvEps),
          1.0 / static_cast<double>(kApproxInvEps));
    default:
      return emit_and_save<core::KDistanceScheme>(
          kind, sc, path, "k=" + std::to_string(kKdistK), kKdistK);
  }
}

/// One fully set-up serving node: shipped files, index, server, clients.
/// Members are declared in dependency order, so destruction closes the
/// clients, then stops the server, then drops the index.
struct Node {
  std::vector<std::string> files;  ///< by tree id
  std::uint64_t file_bytes = 0;
  std::uint64_t nodes = 0;
  std::size_t fgnw_max_bits = 0;
  std::vector<std::unique_ptr<core::IncrementalRelabeler>> relabelers;
  std::vector<core::DeltaJournal> journals;
  std::vector<serve::TreeId> edited_ids;
  std::unique_ptr<serve::ForestIndex> index;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<net::QueryClient>> clients;
};

/// Generate, scaffold, emit, save, map, start the server, warm up.
std::unique_ptr<Node> set_up(const Workload& w,
                             const std::vector<TreePlan>& plan,
                             const Pool& pool, const std::string& dir,
                             const CpuPlan& cpus) {
  const auto build_threads = static_cast<int>(cpus.all.size());
  auto node = std::make_unique<Node>();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const TreePlan& tp = plan[i];
    const std::string path = dir + "/tree" + std::to_string(i) + ".lbl";
    std::unique_ptr<tree::Tree> t;
    {
      const Scope s("tree.generate");
      t = std::make_unique<tree::Tree>(generate(w, tp));
    }
    if (tp.edited) {
      {
        const Scope s("core.relabel.build");
        node->relabelers.push_back(std::make_unique<core::IncrementalRelabeler>(
            *t, core::RelabelOptions{build_threads, 0.5}));
      }
      core::JournalOptions jo;
      jo.checkpoint_records = kCheckpointRecords;
      jo.sync = true;
      const Scope s("core.journal.create");
      node->journals.push_back(core::DeltaJournal::create(
          path, node->relabelers.back()->to_loaded(), jo));
    } else {
      const core::TreeScaffold sc(*t, build_threads);
      // The scaffold's lazy accessors, in pipeline order, each one the
      // scheme needs timed on its own (the scheme then reuses them).
      if (tp.kind == kFgnw) {
        { const Scope s("tree.binarize"); (void)sc.binarized(); }
        { const Scope s("tree.binarized_hpd"); (void)sc.binarized_hpd(); }
        { const Scope s("tree.collapsed"); (void)sc.collapsed(); }
        { const Scope s("nca.binarized_label"); (void)sc.binarized_nca(); }
      } else {
        { const Scope s("tree.hpd"); (void)sc.hpd(); }
        if (tp.kind == kAlstrup || tp.kind == kApprox) {
          const Scope s("nca.label");
          (void)sc.nca();
        }
      }
      const std::size_t max_bits = emit_and_save(tp.kind, sc, path);
      if (tp.kind == kFgnw)
        node->fgnw_max_bits = std::max(node->fgnw_max_bits, max_bits);
    }
    node->files.push_back(path);
    node->file_bytes += std::filesystem::file_size(path);
    node->nodes += static_cast<std::uint64_t>(t->size());
  }

  serve::ForestOptions fo;
  fo.shards = w.shards;
  fo.threads = w.index_threads;
  fo.cache_bytes_per_shard = w.cache_bytes_per_shard;
  node->index = std::make_unique<serve::ForestIndex>(fo);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Scope s("serve.add_file");
    const serve::TreeId id = node->index->add_file(node->files[i]);
    if (plan[i].edited) node->edited_ids.push_back(id);
  }
  {
    const Scope s("net.server.start");
    node->server = std::make_unique<net::Server>(*node->index);
    pin_self(cpus.server);  // the loop thread inherits the server's CPUs
    node->server->start();
    pin_self(cpus.all);
  }

  const Scope warm("serve.warmup");
  // Touch every label once through the shard caches, stopping early once
  // the cache evicts: past that point it is full and stays cold. Single
  // queries keep warm-up out of the batch latency histograms. Then a few
  // batches per connection over the wire.
  const std::size_t n = std::size_t{1} << w.log2_n;
  for (std::size_t u = 0; u + 1 < n; u += 2) {
    for (std::size_t t = 0; t < plan.size(); ++t)
      (void)node->index->query({static_cast<serve::TreeId>(t),
                                static_cast<tree::NodeId>(u),
                                static_cast<tree::NodeId>(u + 1)});
    if (u % 256 == 0 && node->index->cache_stats().evictions > 0) break;
  }
  std::vector<serve::QueryResult> out;
  for (int c = 0; c < w.connections; ++c) {
    node->clients.push_back(std::make_unique<net::QueryClient>(
        "127.0.0.1", node->server->port()));
    if (!node->clients.back()->connected())
      throw std::runtime_error("perfbench: cannot connect to the server");
    for (int b = 0; b < 4; ++b)
      if (node->clients.back()->query_batch(
              std::span(pool.reqs).subspan(static_cast<std::size_t>(b) * w.batch,
                                           w.batch),
              out) != net::QueryClient::BatchStatus::kOk)
        throw std::runtime_error("perfbench: warm-up batch failed");
  }
  return node;
}

// --- the measured window -----------------------------------------------------

/// qps is the median over this many equal time slices of the window, so a
/// burst of interference from outside the process moves it little.
constexpr int kSlices = 20;

/// Each slice that batch latency percentiles are taken over holds at least
/// this many batches, so its p99 has ten samples beyond it.
constexpr std::size_t kMinBatchesPerSlice = 1000;

struct Sample {
  std::uint64_t at_ns;  ///< completion time, from the window's start
  double us;
};

struct Window {
  double seconds = 0;
  std::vector<Sample> rt;                ///< per batch round trip
  std::vector<std::uint64_t> slice_ok;   ///< correct answers per slice
  std::vector<double> edit_us, late_us;  ///< edit latency, generator lag
  std::uint64_t attempted = 0, failed = 0, wrong = 0, batches = 0;

  [[nodiscard]] double qps() const {
    std::vector<double> v;
    for (const std::uint64_t ok : slice_ok)
      v.push_back(static_cast<double>(ok) / (seconds / kSlices));
    return median(v);
  }

  /// Median over time slices of each slice's q-quantile round trip.
  [[nodiscard]] double batch_quantile(double q) const {
    const std::size_t slices = std::clamp<std::size_t>(
        rt.size() / kMinBatchesPerSlice, 1, kSlices);
    std::vector<std::vector<double>> by(slices);
    const double len = seconds * 1e9 / static_cast<double>(slices);
    for (const Sample& s : rt)
      by[std::min(slices - 1,
                  static_cast<std::size_t>(static_cast<double>(s.at_ns) / len))]
          .push_back(s.us);
    std::vector<double> v;
    for (const auto& b : by)
      if (!b.empty()) v.push_back(quantile(b, q));
    return median(v);
  }
};

struct Reader {
  std::vector<Sample> rt;
  std::vector<std::uint64_t> slice_ok = std::vector<std::uint64_t>(kSlices);
  std::uint64_t attempted = 0, failed = 0, wrong = 0, batches = 0;
};

std::atomic<std::uint64_t> g_request_id{1};

void read_loop(net::QueryClient& client, const Pool& pool,
               const std::vector<TreePlan>& plan, std::size_t batch,
               std::size_t pos, std::uint64_t t0, std::uint64_t t_end,
               int cpu, Reader& r) {
  pin_self({cpu});
  std::vector<serve::QueryResult> out;
  const std::uint64_t slice_ns = (t_end - t0) / kSlices;
  while (now_ns() < t_end) {
    const std::span<const serve::Request> reqs =
        std::span(pool.reqs).subspan(pos, batch);
    const std::uint64_t a = now_ns();
    net::QueryClient::BatchStatus st;
    {
      const Scope s("net.query_batch", g_request_id.fetch_add(1));
      st = client.query_batch(reqs, out);
    }
    const std::uint64_t b = now_ns();
    r.attempted += batch;
    ++r.batches;
    r.rt.push_back({b - t0, static_cast<double>(b - a) / 1e3});
    if (st != net::QueryClient::BatchStatus::kOk) {
      r.failed += batch;
      if (st == net::QueryClient::BatchStatus::kError) return;
    } else {
      std::uint64_t ok = 0;
      for (std::size_t i = 0; i < batch; ++i)
        ok += answer_ok(plan[reqs[i].tree].kind, pool.dist[pos + i], out[i])
                  ? 1
                  : 0;
      r.wrong += batch - ok;
      r.failed += batch - ok;
      if (b < t_end)
        r.slice_ok[std::min<std::uint64_t>(kSlices - 1, (b - t0) / slice_ns)] += ok;
    }
    pos = (pos + batch) % kPoolSize;
  }
}

/// Open-loop editor: edit k is due at t0 + k / rate; its latency runs from
/// that due time until apply_delta returns (durable and visible).
void edit_loop(Node& node, const Workload& w, std::uint64_t seed,
               std::uint64_t t0, std::uint64_t t_end, int cpu, Window& win) {
  pin_self({cpu});
  std::mt19937_64 rng(seed ^ 0x5bd1e995ULL);
  const double interval_ns = 1e9 / w.edit_rate;
  for (std::uint64_t k = 0;; ++k) {
    const auto due =
        t0 + static_cast<std::uint64_t>(static_cast<double>(k) * interval_ns);
    if (due >= t_end) break;
    while (now_ns() < due)
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now_ns()));
    const std::uint64_t start = now_ns();
    const std::size_t e = k % node.relabelers.size();
    core::IncrementalRelabeler& relab = *node.relabelers[e];
    ++win.attempted;
    try {
      const Scope s("edit.request", g_request_id.fetch_add(1));
      const auto parent = static_cast<tree::NodeId>(rng() % relab.size());
      {
        const Scope s1("core.relabel.insert");
        (void)relab.insert_leaf(parent);
      }
      core::LabelDelta d;
      {
        const Scope s1("core.relabel.make_delta");
        d = relab.make_delta();
      }
      {
        const Scope s1("core.journal.append");
        node.journals[e].append(d);
      }
      {
        const Scope s1("serve.apply_delta");
        (void)node.index->apply_delta(node.edited_ids[e], d);
      }
      {
        const Scope s1("core.relabel.advance_delta");
        relab.advance_delta(d);
      }
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "perfbench: edit %llu failed: %s\n",
                   static_cast<unsigned long long>(k), ex.what());
      ++win.failed;
    }
    const std::uint64_t end = now_ns();
    win.edit_us.push_back(static_cast<double>(end - due) / 1e3);
    win.late_us.push_back(static_cast<double>(start - due) / 1e3);
  }
}

Window measure(Node& node, const Workload& w, const Pool& pool,
               const std::vector<TreePlan>& plan, const CpuPlan& cpus,
               std::uint64_t seed, double seconds, std::size_t& pool_pos) {
  Window win;
  win.seconds = seconds;
  std::vector<Reader> readers(static_cast<std::size_t>(w.connections));
  const std::uint64_t t0 = now_ns();
  const std::uint64_t t_end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < w.connections; ++c) {
    // Each connection walks its own stretch of the pool.
    const std::size_t start =
        (pool_pos + static_cast<std::size_t>(c) * (kPoolSize / 2)) % kPoolSize;
    threads.emplace_back(read_loop, std::ref(*node.clients[c]),
                         std::cref(pool), std::cref(plan), w.batch, start, t0,
                         t_end, cpus.readers[static_cast<std::size_t>(c)],
                         std::ref(readers[static_cast<std::size_t>(c)]));
  }
  if (w.edited_trees > 0)
    threads.emplace_back(edit_loop, std::ref(node), std::cref(w), seed, t0,
                         t_end, cpus.editor, std::ref(win));
  for (std::thread& t : threads) t.join();
  pool_pos = (pool_pos + kPoolSize / 4) % kPoolSize;
  win.slice_ok.assign(kSlices, 0);
  for (const Reader& r : readers) {
    win.rt.insert(win.rt.end(), r.rt.begin(), r.rt.end());
    for (int s = 0; s < kSlices; ++s) win.slice_ok[s] += r.slice_ok[s];
    win.attempted += r.attempted;
    win.failed += r.failed;
    win.wrong += r.wrong;
    win.batches += r.batches;
  }
  return win;
}

/// Queries a fixed probe set on every edited tree, new leaves included,
/// against an oracle built on the relabeler's snapshot(). Returns
/// {attempted, failed}.
std::pair<std::uint64_t, std::uint64_t> probe_edited(Node& node,
                                                     std::uint64_t seed) {
  constexpr std::size_t kProbes = 512;
  std::uint64_t attempted = 0, failed = 0;
  std::mt19937_64 rng(seed ^ 0xc2b2ae35ULL);
  std::vector<serve::QueryResult> out;
  for (std::size_t e = 0; e < node.relabelers.size(); ++e) {
    const tree::Tree snap = node.relabelers[e]->snapshot();
    const tree::NcaIndex oracle(snap);
    const auto n = static_cast<std::uint64_t>(snap.size());
    std::vector<serve::Request> reqs(kProbes);
    for (std::size_t i = 0; i < kProbes; ++i) {
      // Half the probes touch the newest nodes, where the edits landed.
      const std::uint64_t lo = i % 2 == 0 ? 0 : n - std::min<std::uint64_t>(n, 2048);
      reqs[i] = {node.edited_ids[e],
                 static_cast<tree::NodeId>(lo + rng() % (n - lo)),
                 static_cast<tree::NodeId>(rng() % n)};
    }
    attempted += kProbes;
    if (node.clients[0]->query_batch(reqs, out) !=
        net::QueryClient::BatchStatus::kOk) {
      failed += kProbes;
      continue;
    }
    for (std::size_t i = 0; i < kProbes; ++i)
      if (!answer_ok(kAlstrup, oracle.distance(reqs[i].u, reqs[i].v), out[i]))
        ++failed;
  }
  return {attempted, failed};
}

// --- reporting ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::map<std::string, std::uint64_t> server_stats(net::QueryClient& c) {
  std::vector<net::StatLine> lines;
  if (!c.stats(lines)) throw std::runtime_error("perfbench: Stats RPC failed");
  std::map<std::string, std::uint64_t> m;
  for (const net::StatLine& l : lines) m[l.name] = l.value;
  return m;
}

/// Per-call ns of the spans named `name` (a timed loop counts `calls`).
std::vector<double> span_ns(const char* name) {
  std::vector<double> v;
  for (const auto& b : perfbench::Tracer::get().buffers())
    for (const perfbench::Span& s : b->spans)
      if (std::strcmp(s.name, name) == 0)
        v.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                    static_cast<double>(s.calls));
  return v;
}

/// Median over set-up repetitions of the summed ms of spans `name` that
/// fall inside each repetition's [start, end) interval (main thread).
double per_rep_ms(const char* name,
                  const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                      reps) {
  std::vector<double> sums(reps.size(), 0);
  for (const auto& b : perfbench::Tracer::get().buffers())
    for (const perfbench::Span& s : b->spans) {
      if (std::strcmp(s.name, name) != 0) continue;
      for (std::size_t r = 0; r < reps.size(); ++r)
        if (s.start_ns >= reps[r].first && s.end_ns <= reps[r].second)
          sums[r] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  return median(sums);
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

void print_lines(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms)
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// Times `calls` invocations of f as one span; returns nothing — the span
/// is read back with span_ns().
template <typename F>
void timed_loop(const char* name, std::uint64_t calls, F&& f) {
  const Scope s(name, 0, calls);
  for (std::uint64_t i = 0; i < calls; ++i) f(i);
}

volatile std::uint64_t g_sink = 0;  // keeps timed results alive

/// Micro-measurements of single public calls on the workload's own data:
/// the batch codecs at the workload's batch size, and AnyScheme::attach /
/// attached AnyScheme::query on one tree of each scheme.
void micro_phase(Node& node, const Workload& w, const Pool& pool,
                 const std::vector<TreePlan>& plan, std::uint64_t seed) {
  const std::span<const serve::Request> reqs =
      std::span(pool.reqs).subspan(0, w.batch);
  const std::vector<serve::QueryResult> results =
      node.index->query_batch_checked(reqs);
  const std::string batch_payload = net::encode_query_batch(reqs);
  const std::string reply_payload = net::encode_query_reply(results);
  std::vector<serve::Request> req_out;
  std::vector<serve::QueryResult> res_out;
  for (int i = 0; i < 200; ++i) {
    {
      const Scope s("net.codec.encode_batch");
      g_sink = g_sink + net::encode_query_batch(reqs).size();
    }
    {
      const Scope s("net.codec.decode_batch");
      g_sink = g_sink + net::decode_query_batch(batch_payload, req_out);
    }
    {
      const Scope s("net.codec.encode_reply");
      g_sink = g_sink + net::encode_query_reply(results).size();
    }
    {
      const Scope s("net.codec.decode_reply");
      g_sink = g_sink + net::decode_query_reply(reply_payload, res_out);
    }
  }

  std::mt19937_64 rng(seed ^ 0x27d4eb2fULL);
  for (int k = 0; k < kKinds; ++k) {
    std::size_t t = 0;
    while (t < plan.size() && (plan[t].kind != k || plan[t].edited)) ++t;
    if (t == plan.size()) continue;
    const core::LabelStore::MappedLoaded ml =
        core::LabelStore::open_mapped(node.files[t]);
    const serve::AnyScheme sch = serve::AnyScheme::make(ml.scheme, ml.params);
    constexpr std::size_t kAttach = 4096;
    std::vector<serve::AnyScheme::AttachedPtr> att(kAttach);
    std::vector<std::size_t> ids(kAttach);
    for (std::size_t& id : ids) id = rng() % ml.labels.size();
    timed_loop(kAttachSpan[k], kAttach,
               [&](std::uint64_t i) { att[i] = sch.attach(ml.labels.view(ids[i])); });
    std::uint64_t acc = 0;
    timed_loop(kQuerySpan[k], std::uint64_t{1} << 16, [&](std::uint64_t i) {
      acc += sch.query(*att[i % kAttach], *att[(i * 2654435761ULL) % kAttach])
                 .value;
    });
    g_sink = g_sink + acc;
  }
}

int run(const Args& a) {
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads)
    if (a.workload == w.name) wp = &w;
  if (wp == nullptr) usage(("unknown workload " + a.workload).c_str());
  const Workload& w = *wp;

  // Thread budget: refuse rather than oversubscribe.
  CpuPlan cpus;
  cpus.all = allowed_cpus();
  serve::ForestOptions probe_opt;
  probe_opt.shards = w.shards;
  probe_opt.threads = w.index_threads;
  const int fanout = serve::ForestIndex(probe_opt).planned_fanout(w.batch);
  const int editors = w.edited_trees > 0 ? 1 : 0;
  const auto budget =
      static_cast<std::size_t>(w.connections + 1 + fanout + editors);
  char prov[512];
  std::snprintf(prov, sizeof(prov),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"nproc\": %zu, \"connections\": %d, "
                "\"server_loop\": 1, \"planned_fanout\": %d, \"editor\": %d, "
                "\"threads\": %zu, \"kernels\": \"%s\", \"build_type\": \"%s\"}",
                w.name, static_cast<unsigned long long>(a.seed), a.seconds,
                a.trace ? 1 : 0, cpus.all.size(), w.connections, fanout, editors, budget,
                bits::kernels::level_name(), PERFBENCH_BUILD_TYPE);
  std::printf("provenance %s\n", prov);
  if (budget > cpus.all.size()) {
    std::fprintf(stderr,
                 "perfbench: %s needs %zu threads but only %zu CPUs are "
                 "available; refusing to oversubscribe\n",
                 w.name, budget, cpus.all.size());
    return 3;
  }
  std::size_t next = 0;
  for (int i = 0; i <= fanout; ++i) cpus.server.push_back(cpus.all[next++]);
  for (int c = 0; c < w.connections; ++c) cpus.readers.push_back(cpus.all[next++]);
  if (editors > 0) cpus.editor = cpus.all[next++];

  const std::string dir = a.work_dir + "/" + w.name + "-" +
                          std::to_string(static_cast<long long>(getpid()));
  std::filesystem::create_directories(dir);
  struct Cleanup {
    std::string d;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(d, ec);
    }
  } cleanup{dir};

  const std::vector<TreePlan> plan = plan_forest(w, a.seed);
  const Pool pool = make_pool(w, plan, a.seed);
  perfbench::Tracer::get().enable(a.trace);

  // Set up several times; setup_s is the median, the last node serves.
  std::vector<double> setup_s;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> reps;
  std::unique_ptr<Node> node;
  for (int r = 0; r < a.setup_reps; ++r) {
    node.reset();
    const std::uint64_t t0 = now_ns();
    node = set_up(w, plan, pool, dir, cpus);
    const std::uint64_t t1 = now_ns();
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    reps.emplace_back(t0, t1);
  }

  // In a traced run, the first half is measured untraced (the baseline
  // for the tracing overhead) and the second half traced.
  std::size_t pool_pos = 0;
  std::map<std::string, std::uint64_t> st0, st1;
  core::RelabelStats rs0{}, rs1{};
  std::uint64_t cp0 = 0, cp1 = 0;
  Window untraced, win;
  const auto relabel_totals = [&](core::RelabelStats& rs, std::uint64_t& cps) {
    rs = {};
    cps = 0;
    for (const auto& rl : node->relabelers) {
      const core::RelabelStats& s = rl->stats();
      rs.incremental += s.incremental;
      rs.restructured += s.restructured;
      rs.full_heavy_flip += s.full_heavy_flip;
      rs.full_dirty_cone += s.full_dirty_cone;
    }
    for (const core::DeltaJournal& j : node->journals) cps += j.stats().checkpoints;
  };
  if (a.trace) {
    perfbench::Tracer::get().enable(false);
    untraced = measure(*node, w, pool, plan, cpus, a.seed, a.seconds / 2, pool_pos);
    perfbench::Tracer::get().enable(true);
    st0 = server_stats(*node->clients[0]);
    relabel_totals(rs0, cp0);
    win = measure(*node, w, pool, plan, cpus, a.seed + 1, a.seconds / 2, pool_pos);
    relabel_totals(rs1, cp1);
    st1 = server_stats(*node->clients[0]);
  } else {
    relabel_totals(rs0, cp0);
    win = measure(*node, w, pool, plan, cpus, a.seed, a.seconds, pool_pos);
    relabel_totals(rs1, cp1);
  }
  const auto [probe_attempted, probe_failed] = probe_edited(*node, a.seed);

  std::uint64_t attempted = win.attempted + untraced.attempted + probe_attempted;
  std::uint64_t failed = win.failed + untraced.failed + probe_failed;
  const bool correct = win.wrong == 0 && untraced.wrong == 0 && failed == 0;
  const double ok_frac =
      static_cast<double>(attempted - failed) / static_cast<double>(attempted);
  const double rt50 = win.batch_quantile(0.50);
  const double rt99 = win.batch_quantile(0.99);

  const std::vector<Metric> e2e = {
      {"qps", a.trace ? untraced.qps() : win.qps(), "1/s"},
      {"batch_p50_us", rt50, "us"},
      {"batch_p99_us", rt99, "us"},
      {"ok_frac", ok_frac, "ratio"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"file_bytes_per_node",
       static_cast<double>(node->file_bytes) / static_cast<double>(node->nodes),
       "bytes"},
      {"fgnw_max_label_bits", static_cast<double>(node->fgnw_max_bits), "bits"},
  };
  std::vector<Metric> extra = {
      {"batch_samples", static_cast<double>(win.batches), "count"}};
  if (w.edited_trees > 0) {
    extra.push_back({"edit_p50_us", quantile(win.edit_us, 0.50), "us"});
    extra.push_back({"edit_p99_us", quantile(win.edit_us, 0.99), "us"});
    extra.push_back({"edit_samples", static_cast<double>(win.edit_us.size()),
                     "count"});
    extra.push_back(
        {"edit.generator_late_us.p50", quantile(win.late_us, 0.50), "us"});
    extra.push_back(
        {"edit.generator_late_us.p99", quantile(win.late_us, 0.99), "us"});
    extra.push_back({"core.relabel.incremental",
                     static_cast<double>(rs1.incremental - rs0.incremental),
                     "count"});
    extra.push_back({"core.relabel.restructured",
                     static_cast<double>(rs1.restructured - rs0.restructured),
                     "count"});
    extra.push_back(
        {"core.relabel.full_heavy_flip",
         static_cast<double>(rs1.full_heavy_flip - rs0.full_heavy_flip),
         "count"});
    extra.push_back(
        {"core.relabel.full_dirty_cone",
         static_cast<double>(rs1.full_dirty_cone - rs0.full_dirty_cone),
         "count"});
    extra.push_back(
        {"journal.checkpoints", static_cast<double>(cp1 - cp0), "count"});
  }

  std::vector<Metric> layer;
  if (a.trace) {
    micro_phase(*node, w, pool, plan, a.seed);
    const auto st = [&](const std::string& k) {
      const auto it = st1.find(k);
      return it == st1.end() ? 0.0 : static_cast<double>(it->second);
    };
    const auto dst = [&](const std::string& k) {
      const auto it0 = st0.find(k);
      return st(k) - (it0 == st0.end() ? 0.0 : static_cast<double>(it0->second));
    };
    const double hits = dst("serve.cache.hits"), misses = dst("serve.cache.misses");
    // Server-side means over the traced window, exact from the Stats RPC's
    // _sum/_count deltas. Its percentiles are histogram bucket floors over
    // the whole process, so they are report lines only.
    const auto window_mean = [&](const std::string& h) {
      const double n = dst(h + "_count");
      return n > 0 ? dst(h + "_sum") / n : 0.0;
    };
    const double req_mean_us = window_mean("net.server.request_ns") / 1e3;
    double rt_mean_us = 0;
    for (const Sample& smp : win.rt) rt_mean_us += smp.us;
    rt_mean_us /= static_cast<double>(std::max<std::size_t>(1, win.rt.size()));
    const char* stages[][2] = {
        {"tree.generate_ms", "tree.generate"},
        {"tree.hpd_ms", "tree.hpd"},
        {"tree.binarize_ms", "tree.binarize"},
        {"tree.binarized_hpd_ms", "tree.binarized_hpd"},
        {"tree.collapsed_ms", "tree.collapsed"},
        {"nca.label_ms", "nca.label"},
        {"nca.binarized_label_ms", "nca.binarized_label"},
        {"core.emit_ms.fgnw", "core.emit.fgnw"},
        {"core.emit_ms.alstrup", "core.emit.alstrup"},
        {"core.emit_ms.peleg", "core.emit.peleg"},
        {"core.emit_ms.approx", "core.emit.approx"},
        {"core.emit_ms.kdist", "core.emit.kdist"},
        {"core.save_ms", "core.save"},
        {"serve.add_file_ms", "serve.add_file"},
        {"serve.warmup_ms", "serve.warmup"},
    };
    for (const auto& s : stages) layer.push_back({s[0], per_rep_ms(s[1], reps), "ms"});
    const char* codecs[][2] = {
        {"net.codec.encode_batch_us", "net.codec.encode_batch"},
        {"net.codec.decode_batch_us", "net.codec.decode_batch"},
        {"net.codec.encode_reply_us", "net.codec.encode_reply"},
        {"net.codec.decode_reply_us", "net.codec.decode_reply"},
    };
    for (const auto& c : codecs) layer.push_back({c[0], median(span_ns(c[1])) / 1e3, "us"});
    layer.push_back({"net.server.request_ns.mean", req_mean_us * 1e3, "ns"});
    layer.push_back({"net.wire_overhead_us", rt_mean_us - req_mean_us, "us"});
    layer.push_back({"net.wire_share", rt_mean_us > 0 ? (rt_mean_us - req_mean_us) / rt_mean_us : 0, "ratio"});
    layer.push_back({"net.server.frames_in", dst("net.server.frames_in"), "count"});
    layer.push_back({"net.server.overloaded", dst("net.server.overloaded"), "count"});
    layer.push_back({"net.client.batches", static_cast<double>(win.batches), "count"});
    layer.push_back({"serve.batch.latency_ns.mean", window_mean("serve.batch.latency_ns"), "ns"});
    layer.push_back({"serve.cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"});
    layer.push_back({"serve.cache.misses", misses, "count"});
    layer.push_back({"serve.cache.evictions", dst("serve.cache.evictions"), "count"});
    const double pb = dst("serve.planner.batches");
    layer.push_back({"serve.planner.groups_per_batch",
                     pb > 0 ? dst("serve.planner.groups") / pb : 0, "count"});
    layer.push_back({"serve.planned_fanout", static_cast<double>(fanout), "count"});
    // util::parallel_for_chunks runs one chunk on the calling thread and
    // spawns a fresh std::thread for each other one, per batch.
    layer.push_back({"util.threads_spawned_per_batch", static_cast<double>(fanout - 1), "count"});
    for (int k = 0; k < kKinds; ++k)
      layer.push_back({std::string("serve.attach_ns.") + kTag[k], median(span_ns(kAttachSpan[k])), "ns"});
    for (int k = 0; k < kKinds; ++k)
      layer.push_back({std::string("bits.attached_query_ns.") + kTag[k], median(span_ns(kQuerySpan[k])), "ns"});
    layer.push_back({"bits.kernels.level", static_cast<double>(bits::kernels::level()), "count"});
    const std::map<std::string, double> self = perfbench::Tracer::get().self_ms_by_layer();
    for (const char* l : {"tree", "nca", "core", "bits", "serve", "net"}) {
      const auto it = self.find(l);
      layer.push_back({std::string("trace.self_ms.") + l, it == self.end() ? 0 : it->second, "ms"});
    }
    layer.push_back({"trace.qps_delta", win.qps() - untraced.qps(), "1/s"});
    layer.push_back({"trace.spans", static_cast<double>(perfbench::Tracer::get().span_count()), "count"});

    extra.push_back({"net.server.request_ns.p99", st("net.server.request_ns_p99"), "ns"});
    extra.push_back({"serve.batch.latency_ns.p99", st("serve.batch.latency_ns_p99"), "ns"});
    if (w.edited_trees > 0) {
      extra.push_back({"core.relabel.insert_us", median(span_ns("core.relabel.insert")) / 1e3, "us"});
      extra.push_back({"core.relabel.make_delta_us", median(span_ns("core.relabel.make_delta")) / 1e3, "us"});
      extra.push_back({"core.relabel.advance_delta_us", median(span_ns("core.relabel.advance_delta")) / 1e3, "us"});
      extra.push_back({"core.journal.append_us", median(span_ns("core.journal.append")) / 1e3, "us"});
      extra.push_back({"journal.fsync_ns.mean", window_mean("journal.fsync_ns"), "ns"});
      extra.push_back({"journal.fsync_ns.p99", st("journal.fsync_ns_p99"), "ns"});
      extra.push_back({"serve.apply_delta_us", median(span_ns("serve.apply_delta")) / 1e3, "us"});
      extra.push_back({"serve.cache.invalidated", dst("serve.cache.invalidated"), "count"});
    }
    if (!a.trace_out.empty() &&
        !perfbench::Tracer::get().write(a.trace_out, prov))
      std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_out.c_str());
  }

  print_lines("end_to_end", e2e);
  print_lines("workload", extra);
  if (a.trace) print_lines("per_layer", layer);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      json_metrics(a.trace ? layer : e2e).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
