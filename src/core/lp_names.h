#pragma once
// Delta-stable LP entity names.
//
// The warm-start snapshot (lp/warm_start.h) re-keys a basis by variable and
// row NAMES, so names must survive a platform delta to be useful. Raw
// node/edge ids shift when apply_delta removes an entity; node NAMES follow
// the survivors (platform/delta.h keeps the name map consistent). Keying
// every LP entity on node names — an edge as "src.dst", which is unique
// because the platform graph rejects parallel edges — makes the names
// invariant under id churn: after a delta, exactly the vanished entities
// lose their names and everything else maps back onto itself. The "."
// separator is part of every warm-start key, so changing it would orphan
// every stored basis snapshot; apply_delta rejects added node names
// containing '.' so composed tags cannot alias. Caveat: adversarial
// base-platform names can still collide through composition (a node
// literally named "B.C", or builder infixes like "_m" embedded in a name).
// That is tolerated by design — a colliding name degrades the warm-start
// mapping (wrong column pairing, extra pivots), never correctness: every
// solution is certified exactly regardless of what the basis snapshot
// mapped to.

#include <string>

#include "platform/platform.h"

namespace ssco::core {

/// Stable tag of edge e: "srcname.dstname".
inline std::string edge_tag(const platform::Platform& platform,
                            graph::EdgeId e) {
  const auto& edge = platform.graph().edge(e);
  return platform.node_name(edge.src) + "." + platform.node_name(edge.dst);
}

/// Stable tag of node n: its name.
inline const std::string& node_tag(const platform::Platform& platform,
                                   graph::NodeId n) {
  return platform.node_name(n);
}

}  // namespace ssco::core
