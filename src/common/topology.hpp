// CPU topology discovery for shard sizing and pinning.
//
// The sharded queue-of-queues layer (wcq/sharded.hpp) wants one shard
// per core cluster — threads sharing an L3 slice (or a cluster_id in
// sysfs terms) should share a shard so the hot ring's cache lines stay
// inside the cluster, while threads on different clusters get
// different rings and never exchange lines at all. This header reads
// that structure from sysfs on Linux and degrades to a single flat
// cluster anywhere else (or when sysfs is absent, e.g. in minimal
// containers), so callers never need a platform branch.
//
// Grouping preference per CPU, most to least specific:
//   1. cache/index3/shared_cpu_list  (an L3 complex, e.g. one CCX)
//   2. topology/cluster_id           (kernel >= 5.16 cluster sched)
//   3. topology/physical_package_id  (the socket)
//   4. everything in cluster 0       (portable fallback)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace wcq::topo {

struct CpuTopology {
  unsigned cpus = 1;
  // cluster index -> cpu ids inside it; every online cpu appears in
  // exactly one cluster. Size >= 1 always.
  std::vector<std::vector<unsigned>> clusters;
};

namespace detail_topo {

// First line of a sysfs file, or empty when unreadable.
inline std::string read_line(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return {};
  char buf[256];
  std::string out;
  if (std::fgets(buf, sizeof(buf), f) != nullptr) {
    out = buf;
    while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
      out.pop_back();
    }
  }
  std::fclose(f);
  return out;
}

// Parse a sysfs cpu list ("0-3,8-11,15") into ids.
inline std::vector<unsigned> parse_cpu_list(const std::string& s) {
  std::vector<unsigned> out;
  const char* p = s.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned long lo = std::strtoul(p, &end, 10);
    if (end == p) break;
    unsigned long hi = lo;
    p = end;
    if (*p == '-') {
      hi = std::strtoul(p + 1, &end, 10);
      if (end == p + 1) break;
      p = end;
    }
    for (unsigned long c = lo; c <= hi; ++c) {
      out.push_back(static_cast<unsigned>(c));
    }
    if (*p == ',') ++p;
  }
  return out;
}

inline CpuTopology discover() {
  CpuTopology t;
  const unsigned hw = std::thread::hardware_concurrency();
  t.cpus = hw != 0 ? hw : 1;
#if defined(__linux__)
  const auto online =
      parse_cpu_list(read_line("/sys/devices/system/cpu/online"));
  if (!online.empty()) {
    t.cpus = static_cast<unsigned>(online.size());
    // Group key per cpu: L3 complex when exposed, else cluster id,
    // else package id. Key strings ("l3:0-15" / "cl:1" / "pkg:0") keep
    // the three id spaces from colliding.
    std::vector<std::string> keys;
    std::vector<std::vector<unsigned>> groups;
    for (const unsigned cpu : online) {
      const std::string base =
          "/sys/devices/system/cpu/cpu" + std::to_string(cpu) + "/";
      std::string key = read_line(base + "cache/index3/shared_cpu_list");
      if (!key.empty()) {
        key = "l3:" + key;
      } else if (std::string cl = read_line(base + "topology/cluster_id");
                 !cl.empty() && cl != "-1") {
        key = "cl:" + cl;
      } else if (std::string pkg =
                     read_line(base + "topology/physical_package_id");
                 !pkg.empty()) {
        key = "pkg:" + pkg;
      }
      std::size_t g = 0;
      for (; g < keys.size(); ++g) {
        if (keys[g] == key) break;
      }
      if (g == keys.size()) {
        keys.push_back(key);
        groups.emplace_back();
      }
      groups[g].push_back(cpu);
    }
    t.clusters = std::move(groups);
  }
#endif
  if (t.clusters.empty()) {
    // Portable fallback: one flat cluster over every assumed cpu.
    t.clusters.emplace_back();
    for (unsigned c = 0; c < t.cpus; ++c) t.clusters[0].push_back(c);
  }
  return t;
}

}  // namespace detail_topo

// Discovered once, shared by every caller (sysfs never changes under
// a running bench; CPU hotplug mid-run is out of scope).
inline const CpuTopology& cpu_topology() {
  static const CpuTopology t = detail_topo::discover();
  return t;
}

inline unsigned floor_pow2(unsigned v) {
  unsigned p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

// Shard count for this machine: floor_pow2(max(clusters, cpus/8)),
// i.e. one shard per core cluster, rounded down to a power of two
// (the sharded layer masks, never divides). On a 1-cluster machine
// the cpus/8 term still spreads a large cpu count over multiple
// shards — ~8 cpus per ring keeps the fan-in below where a single
// FAA point becomes the wall. Always >= 1.
inline unsigned recommended_shards() {
  const CpuTopology& t = cpu_topology();
  unsigned want = static_cast<unsigned>(t.clusters.size());
  const unsigned by_cpus = t.cpus / 8;
  if (by_cpus > want) want = by_cpus;
  if (want == 0) want = 1;
  return floor_pow2(want);
}

// The cpu a given shard's k-th worker should run on: walk the shard's
// cluster round-robin. Shards map onto clusters round-robin too, so
// with shards == clusters the mapping is one-to-one.
inline unsigned shard_cpu(unsigned shard, unsigned worker) {
  const CpuTopology& t = cpu_topology();
  const auto& cluster = t.clusters[shard % t.clusters.size()];
  return cluster[worker % cluster.size()];
}

}  // namespace wcq::topo
