#pragma once
// Seeded instance generation owned by the benchmark. The program under test
// only ever sees the finished platforms and role assignments built here, so
// a change to the program's own generators cannot move the inputs.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "platform/paper_instances.h"
#include "platform/platform.h"

namespace perfbench {

using ssco::num::Rational;
using ssco::platform::NodeId;

/// splitmix64: small, fast, and fully specified here.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi]; the modulo bias is irrelevant at these spans.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Mixes a run seed with a stream tag so each workload draws independent
/// streams from one --seed.
inline std::uint64_t stream(std::uint64_t seed, std::uint64_t tag) {
  Rng r(seed ^ (tag * 0xd1b54a32d192ed03ull));
  return r.next();
}

/// Connected sparse platform: a random spanning tree plus about
/// `extra_per_node` additional links per node, symmetric link costs a/b
/// with a in [1,5] and b in [1,3] (b in {1,2,4} when `dyadic`), integer
/// node speeds in [1,9]. Node names carry `tag` so platforms of different
/// clients never coincide.
inline ssco::platform::Platform sparse_platform(Rng& rng, std::size_t n,
                                                double extra_per_node,
                                                const std::string& tag,
                                                bool dyadic = false) {
  ssco::platform::PlatformBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    b.add_node(tag + std::to_string(i), Rational(rng.uniform(1, 9)));
  }
  std::vector<std::vector<bool>> linked(n, std::vector<bool>(n, false));
  auto link = [&](std::size_t u, std::size_t v) {
    if (u == v || linked[u][v]) return;
    linked[u][v] = linked[v][u] = true;
    const std::int64_t a = rng.uniform(1, 5);
    const std::int64_t d = rng.uniform(1, 3);
    b.add_link(static_cast<NodeId>(u), static_cast<NodeId>(v),
               Rational(a, dyadic && d == 3 ? 4 : d));
  };
  for (std::size_t i = 1; i < n; ++i) {
    link(i, static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(i) - 1)));
  }
  const double p = extra_per_node / static_cast<double>(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (rng.unit() < p) link(u, v);
    }
  }
  return b.build();
}

/// `k` distinct node ids drawn from [first, n).
inline std::vector<NodeId> pick_nodes(Rng& rng, std::size_t n, std::size_t k,
                                      std::size_t first) {
  std::vector<NodeId> pool(n - first);
  std::iota(pool.begin(), pool.end(), static_cast<NodeId>(first));
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform(static_cast<std::int64_t>(i),
                    static_cast<std::int64_t>(pool.size()) - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

/// Scatter from node 0 to `targets` random other nodes.
inline ssco::platform::ScatterInstance scatter_instance(
    std::uint64_t seed, std::size_t n, std::size_t targets,
    const std::string& tag, bool dyadic = false) {
  Rng rng(seed);
  ssco::platform::ScatterInstance inst;
  inst.platform = sparse_platform(rng, n, 4.0, tag, dyadic);
  inst.source = 0;
  inst.targets = pick_nodes(rng, n, targets, 1);
  return inst;
}

/// Reduce over `participants` random nodes toward the last of them.
inline ssco::platform::ReduceInstance reduce_instance(std::uint64_t seed,
                                                      std::size_t n,
                                                      std::size_t participants,
                                                      const std::string& tag,
                                                      bool dyadic = false) {
  Rng rng(seed);
  ssco::platform::ReduceInstance inst;
  inst.platform = sparse_platform(rng, n, 4.0, tag, dyadic);
  inst.participants = pick_nodes(rng, n, participants, 0);
  inst.target = inst.participants.back();
  return inst;
}

}  // namespace perfbench
