// One scenario edit, as a value: the delta vocabulary of the serving
// stream and of every delta-aware (warm-start) solve.
//
// ScenarioDelta started life inside the serve layer's request parser, but
// the core solvers now consume delta spans too (SolveRequest::deltas),
// so the type lives with the Scenario it edits; serve/request_stream.h
// re-exports it under its old name for stream code.  A delta names the
// *operation*, not its effect: apply_delta() is the one place the four
// operations are interpreted, shared by the stream server, the experiment
// drivers and the tests, so everyone agrees on semantics (and on which
// CheckErrors a malformed delta raises).
#pragma once

#include "tree/scenario.h"
#include "tree/topology.h"

namespace treeplace {

/// One edit applied to a forked base scenario, in record order.
struct ScenarioDelta {
  enum class Op {
    kSetRequests,       ///< R <client-id> <requests>
    kSetPreExisting,    ///< E <node-id> [<orig-mode>]
    kClearPreExisting,  ///< X <node-id>
    kClearAllPre,       ///< Z
  };

  Op op = Op::kSetRequests;
  NodeId node = kNoNode;
  RequestCount requests = 0;
  int mode = 0;

  /// Convenience constructors for the common edits.
  static ScenarioDelta set_requests(NodeId client, RequestCount requests) {
    return ScenarioDelta{Op::kSetRequests, client, requests, 0};
  }
  static ScenarioDelta set_pre_existing(NodeId node, int mode = 0) {
    return ScenarioDelta{Op::kSetPreExisting, node, 0, mode};
  }
  static ScenarioDelta clear_pre_existing(NodeId node) {
    return ScenarioDelta{Op::kClearPreExisting, node, 0, 0};
  }
  static ScenarioDelta clear_all_pre() {
    return ScenarioDelta{Op::kClearAllPre, kNoNode, 0, 0};
  }
};

/// Applies one delta to `scen`.  Throws CheckError on invalid node ids
/// (wrong kind, out of range) — the same errors the underlying Scenario
/// setters raise.
inline void apply_delta(Scenario& scen, const ScenarioDelta& delta) {
  switch (delta.op) {
    case ScenarioDelta::Op::kSetRequests:
      scen.set_requests(delta.node, delta.requests);
      break;
    case ScenarioDelta::Op::kSetPreExisting:
      scen.set_pre_existing(delta.node, delta.mode);
      break;
    case ScenarioDelta::Op::kClearPreExisting:
      scen.clear_pre_existing(delta.node);
      break;
    case ScenarioDelta::Op::kClearAllPre:
      scen.clear_all_pre_existing();
      break;
  }
}

}  // namespace treeplace
