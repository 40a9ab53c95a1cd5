// sdw_e2e: the repository's end-to-end benchmark driver (see README.md).
//
// One process runs one workload. It builds an SSB database behind a
// simulated storage device and an Engine, drives K virtual closed-loop
// clients from this single thread through the asynchronous Engine::Submit
// API, measures a fixed window, re-executes an
// evenly spaced sample of the completed queries on the Volcano oracle, and
// prints every metric by name with its unit. The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics, or with --trace 1 the per-layer metrics; a traced run
// also writes its spans as Chrome trace-event JSON.
//
// Exit codes: 0 = the run is correct, 1 = a correctness check failed (the
// JSON line still reports what was measured), 2 = bad command line.

#if !defined(NDEBUG) || defined(SDW_LOCK_RANK_CHECKS)
#error "build in Release with SDW_LOCK_RANK=OFF (bench/e2e/CMakeLists.txt)"
#endif

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/volcano.h"
#include "common/breakdown.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/stats.h"
#include "common/timing.h"
#include "core/engine.h"
#include "query/result.h"
#include "ssb/ssb_generator.h"
#include "ssb/workload.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/storage_device.h"

namespace sdw::e2e {
namespace {

// SSB SF 0.25 (~164 MB row-major) with a fixed data seed: --seed varies the
// queries, never the data.
constexpr double kScaleFactor = 0.25;
constexpr uint64_t kDataSeed = 42;
// Set-up is repeated and its median reported, so one slow build on a noisy
// host does not read as a set-up regression.
constexpr int kSetupReps = 5;
// The simulated device of every workload: no OS cache, so each buffer-pool
// miss pays the device, and a pool of 1/32 of the data (~5 MB), less than
// the dimension tables (~6 MB), so under LRU the circular fact scan evicts
// the dimension pages between admissions (see README.md).
constexpr double kSeekLatencyUs = 1200.0;
constexpr size_t kPoolFraction = 32;
// Completed queries re-executed on the Volcano oracle after the window.
constexpr size_t kVerifySamples = 64;
// p99 is reported only over at least this many samples (ten beyond it).
constexpr size_t kMinTailSamples = 1000;
// Pre-generated queries per measured second, per workload: a ceiling well
// above today's rate, so a faster engine never exhausts the pool.
constexpr size_t kQueryPoolPerSecond = 2000;
// Driver back-off when no ticket has completed.
constexpr int64_t kIdleWaitNanos = 1'000'000;

// Every workload is paced by its simulated device, whose timeline does not
// depend on the host's speed: CPU-bound runs of the same code drift by up to
// 1.6x on a shared host, device-bound ones by a few percent (README.md).
// The device bandwidth is chosen per workload so the engine keeps at least
// twice the CPU the device lets it use.
struct Workload {
  const char* name;
  core::EngineConfig config;
  size_t clients;
  double device_mbps;
  std::vector<query::StarQuery> (*make)(size_t num_queries, uint64_t seed);
};

// Why each workload exists is in README.md; names are cited by later work.
const Workload kWorkloads[] = {
    {"mix-disk", core::EngineConfig::kCjoinSp, 64, 220, &ssb::MixedWorkload},
    {"similar-qpipe", core::EngineConfig::kQpipeSp, 64, 220,
     [](size_t n, uint64_t seed) {
       // The 8 plans are drawn with the data seed and --seed only shuffles
       // the sequence: plans differ several-fold in cost, so letting the
       // seed pick them would make every run a different workload.
       auto queries = ssb::SimilarQ32Workload(n, 8, kDataSeed);
       Rng rng(seed);
       for (size_t i = queries.size(); i > 1; --i) {
         std::swap(queries[i - 1], queries[rng.Index(i)]);
       }
       return queries;
     }},
    // Eight clients at 220 MB/s would complete too few queries for a p99
    // within the window, hence a device five times as fast.
    {"shapes-k8", core::EngineConfig::kCjoinSp, 8, 1100,
     [](size_t n, uint64_t seed) {
       return ssb::ShapeSkewedQ32Workload(n, 4, seed);
     }},
};

// ------------------------------------------------------------ command line

constexpr const char* kUsage =
    "usage: sdw_e2e --workload <mix-disk|similar-qpipe|shapes-k8>\n"
    "               [--seed <n>=1] [--seconds <n>=30] [--trace <0|1>=0]\n"
    "  flags take '--flag value' or '--flag=value'; --seed is a non-negative\n"
    "  integer, --seconds a positive integer of at most 3600.\n";

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  uint64_t seconds = 30;
  bool trace = false;
};

[[noreturn]] void BadUsage(const std::string& why) {
  std::fprintf(stderr, "sdw_e2e: %s\n%s", why.c_str(), kUsage);
  std::exit(2);
}

// Digits only, whole string, no overflow: "abc", "-1", "+1", "1x" and ""
// are all rejected rather than read as 0.
uint64_t ParseUint(const std::string& flag, const std::string& s) {
  uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc() || end != s.data() + s.size()) {
    BadUsage("--" + flag + " expects a non-negative integer, got '" + s + "'");
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) BadUsage("unexpected argument '" + arg + "'");
    std::string key = arg.substr(2);
    std::string value;
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else {
      if (i + 1 >= argc) BadUsage("--" + key + " needs a value");
      value = argv[++i];
    }
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace") {
      BadUsage("unknown flag --" + key);
    }
    if (!given.emplace(key, value).second) {
      BadUsage("--" + key + " given twice");
    }
  }

  Args args;
  const auto w = given.find("workload");
  if (w == given.end()) BadUsage("--workload is required");
  for (const Workload& candidate : kWorkloads) {
    if (w->second == candidate.name) args.workload = &candidate;
  }
  if (args.workload == nullptr) {
    BadUsage("unknown workload '" + w->second + "'");
  }
  if (given.count("seed")) args.seed = ParseUint("seed", given["seed"]);
  if (given.count("seconds")) {
    args.seconds = ParseUint("seconds", given["seconds"]);
    if (args.seconds == 0 || args.seconds > 3600) {
      BadUsage("--seconds must be in [1, 3600]");
    }
  }
  if (given.count("trace")) {
    const std::string& t = given["trace"];
    if (t != "0" && t != "1") {
      BadUsage("--trace expects 0 or 1, got '" + t + "'");
    }
    args.trace = t == "1";
  }
  return args;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// ------------------------------------------------------------------ tracing

// In-memory spans, written at exit as Chrome trace-event JSON (load the file
// in chrome://tracing or Perfetto). Lane 0 holds the set-up and phase spans;
// lane c+1 holds virtual client c's queries, one after another.
class Tracer {
 public:
  Tracer(bool on, const char* root) : on_(on), root_(root) {}

  bool on() const { return on_; }

  void Span(const char* name, int64_t start, int64_t end, uint32_t lane,
            uint64_t qid = 0) {
    if (on_) spans_.push_back({name, start, end, lane, qid});
  }

  /// Nanos the driver thread spent recording per-query spans.
  int64_t record_nanos = 0;

  /// Writes the spans, with `summary` as the file's otherData. False when
  /// the file could not be written.
  bool Write(const std::string& path, int64_t origin,
             const std::vector<Metric>& summary) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                    s.name, s.lane, static_cast<double>(s.start - origin) / 1e3,
                    static_cast<double>(s.end - s.start) / 1e3);
      out << buf;
      if (std::strcmp(s.name, root_) != 0) {
        out << "\"parent\":\"" << root_ << "\"";
      }
      if (s.qid != 0) out << ",\"qid\":" << s.qid;
      out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "],\"otherData\":{";
    for (size_t i = 0; i < summary.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "\"%s\":%.10g", summary[i].name.c_str(),
                    summary[i].value);
      out << buf << (i + 1 < summary.size() ? "," : "");
    }
    out << "}}\n";
    out.flush();
    return out.good();
  }

 private:
  struct SpanRec {
    const char* name;
    int64_t start;
    int64_t end;
    uint32_t lane;
    uint64_t qid;
  };
  const bool on_;
  const char* root_;
  std::vector<SpanRec> spans_;
};

// ------------------------------------------------------------------- set-up

// One set-up: database, simulated device, buffer pool, queries and engine.
struct Db {
  storage::Catalog catalog;
  std::unique_ptr<storage::StorageDevice> device;
  std::unique_ptr<storage::BufferPool> pool;
  std::vector<query::StarQuery> queries;
  std::unique_ptr<core::Engine> engine;  // declared last: destroyed first
};

struct SetupTimes {
  double build_s = 0;
  double querygen_s = 0;
  double engine_ctor_s = 0;
  double total() const { return build_s + querygen_s + engine_ctor_s; }
};

std::unique_ptr<Db> SetUp(const Workload& w, uint64_t seed, size_t num_queries,
                          Tracer* tracer, SetupTimes* times) {
  auto db = std::make_unique<Db>();
  int64_t t = NowNanos();
  ssb::BuildSsbDatabase(&db->catalog, {kScaleFactor, kDataSeed});
  storage::DeviceOptions dev;
  dev.memory_resident = false;
  dev.seq_bandwidth_mbps = w.device_mbps;
  dev.seek_latency_us = kSeekLatencyUs;
  dev.os_cache_bytes = 0;
  db->device = std::make_unique<storage::StorageDevice>(dev);
  db->pool = std::make_unique<storage::BufferPool>(
      db->device.get(), db->catalog.total_bytes() / kPoolFraction);
  int64_t now = NowNanos();
  tracer->Span("ssb.build", t, now, 0);
  times->build_s = static_cast<double>(now - t) * 1e-9;

  t = now;
  db->queries = w.make(num_queries, seed);
  now = NowNanos();
  tracer->Span("bench.querygen", t, now, 0);
  times->querygen_s = static_cast<double>(now - t) * 1e-9;

  t = now;
  core::EngineOptions opts;
  opts.config = w.config;
  opts.columnar_pages = true;
  opts.cjoin.max_queries = 128;
  db->engine =
      std::make_unique<core::Engine>(&db->catalog, db->pool.get(), opts);
  now = NowNanos();
  tracer->Span("core.engine_ctor", t, now, 0);
  times->engine_ctor_s = static_cast<double>(now - t) * 1e-9;
  return db;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0;
}

// ----------------------------------------------------------- closed loop

// Counter readings at the window's edges; per-run values are differences.
struct Counters {
  int64_t wall = 0;
  int64_t cpu = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t device_bytes = 0;
};

Counters ReadCounters(const Db& db) {
  return {NowNanos(), ProcessCpuNanos(), db.pool->hits(), db.pool->misses(),
          db.device->device_bytes_read()};
}

struct Client {
  core::QueryTicket ticket;
  size_t query = 0;
  int64_t call_start = 0;
  int64_t call_end = 0;
};

// Everything the window measured.
struct Window {
  uint64_t attempted = 0;  // every ticket the run submitted, warm-up included
  uint64_t failed = 0;     // ... of which ended in a status other than OK
  uint64_t completed = 0;  // OK and reaped inside the window
  Stats latency_ms;
  Stats queue_wait_ms;
  Stats run_ms;
  Stats submit_us;
  Stats reap_lag_us;
  double warmup_s = 0;
  Counters begin;
  Counters end;
  cjoin::CjoinStats cjoin;
  qpipe::SpCounters sp;
  uint64_t cjoin_sp_shares = 0;
  std::array<double, kNumComponents> breakdown_s{};
  bool pool_exhausted = false;
  double peak_rss_mb = 0;
  // Evenly spaced completed queries (query index, ticket) for the oracle:
  // every `verify_stride`-th completion, thinned by half whenever the list
  // reaches 2 * kVerifySamples.
  std::vector<std::pair<size_t, core::QueryTicket>> verify;
  uint64_t verify_stride = 1;

  double seconds() const {
    return static_cast<double>(end.wall - begin.wall) * 1e-9;
  }
};

class ClosedLoop {
 public:
  ClosedLoop(Db* db, size_t clients, Tracer* tracer)
      : db_(db), clients_(clients), tracer_(tracer) {}

  Window Run(uint64_t seconds) {
    Window w;
    const int64_t warm_start = NowNanos();
    for (Client& c : clients_) Submit(&c);
    // Warm-up: one round of K completions, so the window starts with the
    // loop in steady state rather than on a synchronized burst.
    size_t warm = 0;
    while (warm < clients_.size()) warm += Pump(&w, /*measure=*/false);
    db_->engine->ResetCounters();
    Breakdown::Global().Reset();
    w.begin = ReadCounters(*db_);
    w.warmup_s = static_cast<double>(w.begin.wall - warm_start) * 1e-9;
    tracer_->Span("bench.warmup", warm_start, w.begin.wall, 0);

    const int64_t deadline =
        w.begin.wall + static_cast<int64_t>(seconds) * 1'000'000'000;
    while (NowNanos() < deadline && !w.pool_exhausted) {
      Pump(&w, /*measure=*/true);
    }

    w.end = ReadCounters(*db_);
    w.cjoin = db_->engine->cjoin_stats();
    w.sp = db_->engine->sp_counters();
    w.cjoin_sp_shares = db_->engine->cjoin_shares();
    for (int i = 0; i < kNumComponents; ++i) {
      w.breakdown_s[static_cast<size_t>(i)] =
          Breakdown::Global().Seconds(static_cast<Component>(i));
    }
    tracer_->Span("bench.window", w.begin.wall, w.end.wall, 0);

    // Drain: outstanding tickets are tallied but are not window samples.
    for (Client& c : clients_) {
      if (!c.ticket.valid()) continue;
      ++w.attempted;
      if (!c.ticket.Wait().ok()) ++w.failed;
    }
    db_->engine->WaitAll();
    tracer_->Span("bench.drain", w.end.wall, NowNanos(), 0);
    return w;
  }

 private:
  void Submit(Client* c) {
    if (next_ == db_->queries.size()) {
      exhausted_ = true;
      c->ticket = core::QueryTicket();
      return;
    }
    c->query = next_++;
    c->call_start = NowNanos();
    c->ticket = db_->engine->Submit(db_->queries[c->query]);
    c->call_end = NowNanos();
  }

  // One scan over the clients: reaps every finished ticket into `w` (as a
  // sample only when `measure`) and resubmits that client. When nothing had
  // finished, blocks on the oldest outstanding ticket for up to 1 ms.
  // Returns the number of tickets reaped.
  size_t Pump(Window* w, bool measure) {
    size_t reaped = 0;
    for (size_t i = 0; i < clients_.size(); ++i) {
      Client& c = clients_[i];
      if (!c.ticket.valid() || !c.ticket.done()) continue;
      const int64_t noticed = NowNanos();
      Reap(c, static_cast<uint32_t>(i + 1), noticed, measure, w);
      ++reaped;
      Submit(&c);
    }
    if (exhausted_) w->pool_exhausted = true;
    if (reaped == 0) {
      const Client* oldest = nullptr;
      for (const Client& c : clients_) {
        if (c.ticket.valid() &&
            (oldest == nullptr || c.call_start < oldest->call_start)) {
          oldest = &c;
        }
      }
      if (oldest != nullptr) oldest->ticket.WaitFor(kIdleWaitNanos);
    }
    return reaped;
  }

  void Reap(const Client& c, uint32_t lane, int64_t noticed, bool measure,
            Window* w) {
    ++w->attempted;
    if (!c.ticket.status().ok()) {
      ++w->failed;
      return;
    }
    if (!measure) return;
    const core::QueryMetrics m = c.ticket.metrics();
    ++w->completed;
    w->latency_ms.Add(
        static_cast<double>(m.finish_nanos - m.submit_nanos) * 1e-6);
    w->queue_wait_ms.Add(m.queue_wait_seconds() * 1e3);
    w->run_ms.Add(m.run_seconds() * 1e3);
    w->submit_us.Add(static_cast<double>(c.call_end - c.call_start) * 1e-3);
    w->reap_lag_us.Add(static_cast<double>(noticed - m.finish_nanos) * 1e-3);
    if (w->completed % w->verify_stride == 0) {
      w->verify.emplace_back(c.query, c.ticket);
      if (w->verify.size() == 2 * kVerifySamples) {
        for (size_t i = 0; i < kVerifySamples; ++i) {
          w->verify[i] = std::move(w->verify[2 * i + 1]);
        }
        w->verify.resize(kVerifySamples);
        w->verify_stride *= 2;
      }
    }
    if (tracer_->on()) {
      const int64_t t = NowNanos();
      const int64_t run_start =
          m.run_start_nanos != 0 ? m.run_start_nanos : m.finish_nanos;
      tracer_->Span("core.submit", c.call_start, c.call_end, lane, m.qid);
      tracer_->Span("core.queued", m.submit_nanos, run_start, lane, m.qid);
      tracer_->Span("core.run", run_start, m.finish_nanos, lane, m.qid);
      tracer_->Span("bench.reap", m.finish_nanos, noticed, lane, m.qid);
      tracer_->record_nanos += NowNanos() - t;
    }
  }

  Db* db_;
  std::vector<Client> clients_;
  Tracer* tracer_;
  size_t next_ = 0;
  bool exhausted_ = false;
};

// -------------------------------------------------------------- correctness

struct Verdict {
  uint64_t verified = 0;
  uint64_t mismatches = 0;
  double seconds = 0;
};

// Re-executes the sampled queries on the query-centric Volcano engine over a
// memory-resident pool of the same catalog (so the measured device's
// counters stay untouched) and diffs the results. Runs after the window, on
// up to four threads.
Verdict VerifySample(const Db& db, const Window& w, Tracer* tracer) {
  const int64_t t = NowNanos();
  storage::StorageDevice device(
      storage::DeviceOptions{.memory_resident = true});
  storage::BufferPool pool(&device, 0);
  const baseline::VolcanoEngine oracle(&db.catalog, &pool);
  const size_t n = std::min(kVerifySamples, w.verify.size());
  std::vector<std::string> diffs(n);
  const size_t workers =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> threads;
  for (size_t k = 0; k < workers; ++k) {
    threads.emplace_back([&, k] {
      for (size_t i = k; i < n; i += workers) {
        const auto& [qi, ticket] = w.verify[i * w.verify.size() / n];
        diffs[i] = query::DiffResults(oracle.Execute(db.queries[qi]),
                                      ticket.result());
      }
    });
  }
  for (std::thread& th : threads) th.join();

  Verdict v;
  v.verified = n;
  for (size_t i = 0; i < n; ++i) {
    if (diffs[i].empty()) continue;
    ++v.mismatches;
    std::fprintf(stderr, "sdw_e2e: sample %zu differs from the oracle: %s\n",
                 i, diffs[i].c_str());
  }
  const int64_t now = NowNanos();
  tracer->Span("baseline.verify", t, now, 0);
  v.seconds = static_cast<double>(now - t) * 1e-9;
  return v;
}

// ----------------------------------------------------------------- metrics

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> EndToEnd(const Window& w, double setup_s) {
  const double n = static_cast<double>(w.completed);
  return {
      {"qps", Ratio(n, w.seconds()), "1/s"},
      {"p50_ms", w.latency_ms.Percentile(50), "ms"},
      {"p99_ms", w.latency_ms.Percentile(99), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", w.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayer(const Window& w, const storage::DeviceOptions& dev,
                             const std::vector<SetupTimes>& setups,
                             const Verdict& verdict, const Tracer& tracer) {
  const double n = static_cast<double>(w.completed);
  const double secs = w.seconds();
  const cjoin::CjoinStats& cj = w.cjoin;
  const double pool_hits =
      static_cast<double>(w.end.pool_hits - w.begin.pool_hits);
  const double pool_reads =
      pool_hits + static_cast<double>(w.end.pool_misses - w.begin.pool_misses);
  const double device_mb =
      static_cast<double>(w.end.device_bytes - w.begin.device_bytes) / 1e6;
  const double cpu_ms = static_cast<double>(w.end.cpu - w.begin.cpu) * 1e-6;
  const double pages = static_cast<double>(cj.fact_pages_scanned);
  std::vector<double> build, ctor, gen;
  for (const SetupTimes& s : setups) {
    build.push_back(s.build_s);
    ctor.push_back(s.engine_ctor_s);
    gen.push_back(s.querygen_s);
  }

  std::vector<Metric> m = {
      {"storage.device_mb_per_query", Ratio(device_mb, n), "MB"},
      {"storage.device_busy_ratio",
       Ratio(device_mb / secs, dev.seq_bandwidth_mbps), "ratio"},
      {"storage.pool_hit_ratio", Ratio(pool_hits, pool_reads), "ratio"},
      {"storage.logical_reads_per_query", Ratio(pool_reads, n), "count"},
      {"cjoin.fact_pages_per_query", Ratio(pages, n), "count"},
      {"cjoin.fact_pages_per_s", Ratio(pages, secs), "1/s"},
      {"cjoin.admission_s_share", Ratio(cj.admission_seconds, secs), "ratio"},
      {"cjoin.queries_per_admission",
       Ratio(static_cast<double>(cj.queries_admitted),
             static_cast<double>(cj.admission_batches)),
       "count"},
      {"cjoin.dim_scans_per_query",
       Ratio(static_cast<double>(cj.admission_dim_scans), n), "count"},
      {"cjoin.agg_folds_per_page",
       Ratio(static_cast<double>(cj.agg_batches_folded), pages), "count"},
      {"cjoin.agg_groups_shared_ratio",
       Ratio(static_cast<double>(cj.agg_groups_shared),
             static_cast<double>(cj.queries_admitted)),
       "ratio"},
      {"cjoin.agg_merge_s_share",
       Ratio(static_cast<double>(cj.agg_merge_nanos) * 1e-9, secs), "ratio"},
      {"cjoin.batch_pool_hit_ratio",
       Ratio(static_cast<double>(cj.batch_pool_hits),
             static_cast<double>(cj.batch_pool_hits + cj.batch_pool_misses)),
       "ratio"},
      {"cjoin.dist_scratch_reuse_ratio",
       Ratio(static_cast<double>(cj.distributor_scratch_reuses),
             static_cast<double>(cj.distributor_scratch_reuses +
                                 cj.distributor_scratch_grows)),
       "ratio"},
      {"cjoin.queries_rejected", static_cast<double>(cj.queries_rejected),
       "count"},
      {"qpipe.join_shares_per_query",
       Ratio(static_cast<double>(w.sp.join_shares_total()), n), "count"},
      {"qpipe.scan_shares_per_query",
       Ratio(static_cast<double>(w.sp.scan_shares), n), "count"},
      {"core.submit_us.p50", w.submit_us.Percentile(50), "us"},
      {"core.submit_us.p99", w.submit_us.Percentile(99), "us"},
      {"core.queue_wait_ms.p50", w.queue_wait_ms.Percentile(50), "ms"},
      {"core.run_ms.p50", w.run_ms.Percentile(50), "ms"},
      {"core.cjoin_sp_shares_per_query",
       Ratio(static_cast<double>(w.cjoin_sp_shares), n), "count"},
  };
  static constexpr const char* kCpuNames[kNumComponents] = {
      "cpu.hashing_ms", "cpu.joins_ms", "cpu.aggregation_ms",
      "cpu.scans_ms",   "cpu.locks_ms", "cpu.misc_ms"};
  double bucket_ms = 0;
  for (int i = 0; i < kNumComponents; ++i) {
    const double ms = w.breakdown_s[static_cast<size_t>(i)] * 1e3;
    bucket_ms += ms;
    m.push_back({kCpuNames[i], Ratio(ms, n), "ms"});
  }
  m.push_back({"cpu.unattributed_ms", Ratio(cpu_ms - bucket_ms, n), "ms"});
  m.push_back({"cpu.ms_per_query", Ratio(cpu_ms, n), "ms"});
  m.push_back({"cpu.avg_cores", Ratio(cpu_ms * 1e-3, secs), "cores"});
  m.push_back({"ssb.build_s", Median(build), "s"});
  m.push_back({"core.engine_ctor_s", Median(ctor), "s"});
  m.push_back({"bench.querygen_s", Median(gen), "s"});
  m.push_back({"bench.warmup_s", w.warmup_s, "s"});
  m.push_back({"bench.latency_samples", n, "count"});
  m.push_back({"bench.reap_lag_us.p99", w.reap_lag_us.Percentile(99), "us"});
  m.push_back({"bench.trace_overhead_pct",
               Ratio(static_cast<double>(tracer.record_nanos) * 1e-7, secs),
               "%"});
  m.push_back({"baseline.verified", static_cast<double>(verdict.verified),
               "count"});
  m.push_back({"baseline.mismatches", static_cast<double>(verdict.mismatches),
               "count"});
  m.push_back({"baseline.verify_s", verdict.seconds, "s"});
  return m;
}

// ------------------------------------------------------------------- main

std::string TraceDir() {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  return (ec ? std::filesystem::path(".") : exe.parent_path()) / "traces";
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& wl = *args.workload;
  const int64_t origin = NowNanos();
  Tracer tracer(args.trace, wl.name);

  const char* commit = std::getenv("SDW_E2E_COMMIT");
  std::printf("sdw_e2e workload=%s seed=%llu seconds=%llu trace=%d\n", wl.name,
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(args.seconds),
              args.trace ? 1 : 0);
  std::printf(
      "  engine=%s clients=%zu sf=%g device=%g MB/s pool=1/%zu "
      "columnar_pages=1\n",
      core::EngineConfigName(wl.config), wl.clients, kScaleFactor,
      wl.device_mbps, kPoolFraction);
  std::printf("  commit=%s compiler=%s flags=\"%s\" avx2=%d nproc=%u\n",
              commit != nullptr && *commit != '\0' ? commit : "unknown",
              SDW_E2E_COMPILER, SDW_E2E_FLAGS, simd::Avx2Active() ? 1 : 0,
              std::thread::hardware_concurrency());

  const size_t num_queries = wl.clients + args.seconds * kQueryPoolPerSecond;
  std::vector<SetupTimes> setups(kSetupReps);
  std::unique_ptr<Db> db;
  for (SetupTimes& s : setups) {
    db.reset();  // free the previous set-up before building the next
    db = SetUp(wl, args.seed, num_queries, &tracer, &s);
  }
  std::vector<double> totals;
  for (const SetupTimes& s : setups) totals.push_back(s.total());

  ClosedLoop loop(db.get(), wl.clients, &tracer);
  Window w = loop.Run(args.seconds);
  w.peak_rss_mb = PeakRssMb();
  const Verdict verdict = VerifySample(*db, w, &tracer);

  std::vector<std::string> problems;
  if (w.pool_exhausted) problems.push_back("query pool exhausted");
  if (w.failed != 0) {
    problems.push_back(std::to_string(w.failed) + " tickets failed");
  }
  if (w.cjoin.queries_rejected != 0) {
    problems.push_back("CJOIN rejected queries");
  }
  if (w.completed < kMinTailSamples) {
    problems.push_back("only " + std::to_string(w.completed) +
                       " latency samples behind p99_ms");
  }
  if (verdict.verified < kVerifySamples) {
    problems.push_back("too few queries verified");
  }
  if (verdict.mismatches != 0) {
    problems.push_back("results differ from the oracle");
  }

  const std::vector<Metric> metrics =
      args.trace ? PerLayer(w, db->device->options(), setups, verdict, tracer)
                 : EndToEnd(w, Median(totals));
  std::printf("  %llu latency samples, %llu/%llu oracle mismatches\n",
              static_cast<unsigned long long>(w.completed),
              static_cast<unsigned long long>(verdict.mismatches),
              static_cast<unsigned long long>(verdict.verified));
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const std::string& p : problems) {
    std::printf("  FAILED: %s\n", p.c_str());
  }

  if (tracer.on()) {
    tracer.Span(wl.name, origin, NowNanos(), 0);
    const std::filesystem::path dir = TraceDir();
    std::error_code ec;  // a failure surfaces as the Write failure below
    std::filesystem::create_directories(dir, ec);
    const std::string path = (dir / (std::string(wl.name) + ".json")).string();
    if (tracer.Write(path, origin, metrics)) {
      std::printf("  trace: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "sdw_e2e: cannot write %s\n", path.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(w.attempted);
  json += ", \"failed\": " + std::to_string(w.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace sdw::e2e

int main(int argc, char** argv) { return sdw::e2e::Main(argc, argv); }
