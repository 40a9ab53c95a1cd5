// Shared scaffolding for the per-figure benchmark binaries: flag parsing,
// database setup, and experiment headers that relate each run to the paper.
//
// Every binary accepts --name=value flags — most take --sf=<double> plus
// experiment-specific ones; an unknown name exits with status 2 — and
// scales its concurrency grid to the host core count (the paper ran on 24
// cores; crossovers happen relative to hardware contexts, see
// EXPERIMENTS.md).

#ifndef SDW_BENCH_BENCH_COMMON_H_
#define SDW_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "harness/driver.h"
#include "harness/report.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_schema.h"
#include "ssb/workload.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"

namespace sdw::bench {

/// Minimal --name=value flag access. Values parse strictly: a value that is
/// not wholly a finite number, an integer, or a boolean (0, 1, true, false)
/// exits with status 2 instead of running on a silently substituted value.
/// Names are strict too: once a program has read its flags it calls
/// RejectUnread(), which exits with status 2 on an argument that is not
/// --name=value (`--sf 2`) or whose name the program never read (`--sff=2`).
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  double GetDouble(const std::string& name, double def) const {
    const std::string* v = Find(name);
    if (v == nullptr) return def;
    const double d = Parse<double>(name, *v, "a finite number");
    if (!std::isfinite(d)) BadValue(name, *v, "a finite number");
    return d;
  }
  int64_t GetInt(const std::string& name, int64_t def) const {
    const std::string* v = Find(name);
    return v == nullptr ? def : Parse<int64_t>(name, *v, "an integer");
  }
  bool GetBool(const std::string& name, bool def) const {
    const std::string* v = Find(name);
    if (v == nullptr) return def;
    if (*v == "1" || *v == "true") return true;
    if (*v == "0" || *v == "false") return false;
    BadValue(name, *v, "0, 1, true or false");
  }

  /// Exits with status 2 unless every argument is --name=value with a name
  /// some Get* call has read. Call after the last Get*.
  void RejectUnread() const {
    for (const auto& a : args_) {
      const size_t eq = a.find('=');
      if (a.rfind("--", 0) != 0 || eq == std::string::npos || eq == 2) {
        std::fprintf(stderr, "expected --name=value, got '%s'\n", a.c_str());
        std::exit(2);
      }
      const std::string name = a.substr(2, eq - 2);
      if (std::find(read_.begin(), read_.end(), name) == read_.end()) {
        std::fprintf(stderr, "unknown flag --%s; this program reads:",
                     name.c_str());
        for (const auto& r : read_) std::fprintf(stderr, " --%s", r.c_str());
        std::fprintf(stderr, "\n");
        std::exit(2);
      }
    }
  }

 private:
  // The whole value must parse: "abc", "1x" and "" are rejected.
  template <typename T>
  static T Parse(const std::string& name, const std::string& s,
                 const char* want) {
    T v{};
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (s.empty() || ec != std::errc() || end != s.data() + s.size()) {
      BadValue(name, s, want);
    }
    return v;
  }

  [[noreturn]] static void BadValue(const std::string& name,
                                    const std::string& value,
                                    const char* want) {
    std::fprintf(stderr, "--%s expects %s, got '%s'\n", name.c_str(), want,
                 value.c_str());
    std::exit(2);
  }

  const std::string* Find(const std::string& name) const {
    read_.push_back(name);
    const std::string prefix = "--" + name + "=";
    for (const auto& a : args_) {
      if (a.rfind(prefix, 0) == 0) {
        cached_ = a.substr(prefix.size());
        return &cached_;
      }
    }
    return nullptr;
  }

  std::vector<std::string> args_;
  mutable std::string cached_;
  mutable std::vector<std::string> read_;  // names asked for, in read order
};

/// A database with its simulated device and buffer pool.
struct BenchDb {
  storage::Catalog catalog;
  std::unique_ptr<storage::StorageDevice> device;
  std::unique_ptr<storage::BufferPool> pool;
};

/// Disk-simulation profile for disk-resident experiments (DESIGN.md §3).
struct DiskProfile {
  double seq_bandwidth_mbps = 220.0;
  double seek_latency_us = 3000.0;
  size_t os_cache_bytes = 0;  // 0 = no OS cache
  bool direct_io = false;
};

inline std::unique_ptr<BenchDb> MakeSsbBenchDb(double sf, uint64_t seed,
                                               bool memory_resident,
                                               const DiskProfile& disk = {},
                                               size_t pool_bytes = 0) {
  auto db = std::make_unique<BenchDb>();
  ssb::BuildSsbDatabase(&db->catalog, {sf, seed});
  storage::DeviceOptions dev;
  dev.memory_resident = memory_resident;
  dev.seq_bandwidth_mbps = disk.seq_bandwidth_mbps;
  dev.seek_latency_us = disk.seek_latency_us;
  dev.os_cache_bytes = disk.os_cache_bytes;
  dev.direct_io = disk.direct_io;
  db->device = std::make_unique<storage::StorageDevice>(dev);
  db->pool = std::make_unique<storage::BufferPool>(db->device.get(), pool_bytes);
  return db;
}

inline std::unique_ptr<BenchDb> MakeTpchBenchDb(double sf, uint64_t seed) {
  auto db = std::make_unique<BenchDb>();
  ssb::BuildTpchQ1Database(&db->catalog, {sf, seed});
  db->device = std::make_unique<storage::StorageDevice>(
      storage::DeviceOptions{.memory_resident = true});
  db->pool = std::make_unique<storage::BufferPool>(db->device.get(), 0);
  return db;
}

inline size_t Cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// Prints the standard experiment header relating this run to the paper.
inline void PrintHeader(const char* experiment, const char* paper_setup,
                        const char* our_setup, const char* claims) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("  Paper setup : %s\n", paper_setup);
  std::printf("  This run    : %s (host: %zu hardware contexts;\n", our_setup,
              Cores());
  std::printf("                paper used 24 — concurrency crossovers scale "
              "with cores)\n");
  std::printf("  Paper claims: %s\n", claims);
  std::printf("================================================================\n\n");
}

/// Formats a RunMetrics response-time cell: "mean±sd".
inline std::string Cell(const harness::RunMetrics& m) {
  return StrPrintf("%.3f±%.3f", m.response_seconds.Mean(),
                   m.response_seconds.Stddev());
}

}  // namespace sdw::bench

#endif  // SDW_BENCH_BENCH_COMMON_H_
