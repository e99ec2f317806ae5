#pragma once
// Correctness checks the benchmark computes apart from the program.
//
// Every check recomputes its quantity from the instance and the returned
// plan in exact rationals; none calls the program's own validators. A
// check returns the names of the properties that failed (empty = pass), so
// a failed operation is counted under a typed cause.

#include <string>
#include <vector>

#include "core/steady_state.h"
#include "exec/exec_report.h"
#include "platform/delta.h"
#include "platform/paper_instances.h"

namespace perfbench {

using ssco::num::Rational;
using Failures = std::vector<std::string>;

/// Reference figures for one instance, computed once at set-up: the best
/// baseline throughput (a feasible point of the LP, so a lower bound on the
/// optimum) and a port-capacity cut (an upper bound).
struct Reference {
  Rational baseline_tp;
  Rational cut_tp;
};

[[nodiscard]] Reference scatter_reference(
    const ssco::platform::ScatterInstance& inst);
[[nodiscard]] Reference reduce_reference(
    const ssco::platform::ReduceInstance& inst);

/// Bounds, per-port busy time of the flows, conservation and delivery of
/// every commodity, and the schedule (durations, one-port disjointness,
/// messages delivered per period).
[[nodiscard]] Failures check_scatter_plan(
    const ssco::platform::ScatterInstance& inst,
    const ssco::core::FlowPlan& plan, const Reference& ref);

/// Bounds, per-port and per-CPU busy time of the solution, delivery of the
/// full reduction at the target, and the schedule.
[[nodiscard]] Failures check_reduce_plan(
    const ssco::platform::ReduceInstance& inst,
    const ssco::core::ReducePlan& plan, const Reference& ref);

/// A warm-served throughput against a cold solve of the same platform.
[[nodiscard]] Failures check_warm_equals_cold(const Rational& warm,
                                              const Rational& cold);

/// One executed run: clean report and, when `exact_window` (the links ran
/// at their modeled rates), achieved operations within one period's
/// operations of TP x window.
[[nodiscard]] Failures check_exec_report(const ssco::exec::ExecReport& report,
                                         const Rational& tp,
                                         const Rational& period,
                                         bool exact_window);

/// Inferred drift against the injected per-link rate scales: every edge
/// that carried traffic at a scale off by more than `threshold` is
/// corrected to cost / scale within the 1/4096 quantization, and no other
/// edge is touched.
[[nodiscard]] Failures check_inferred_drift(
    const ssco::platform::Platform& platform,
    const ssco::exec::ExecReport& report, const std::vector<double>& scale,
    double threshold, const ssco::platform::PlatformDelta& drift);

/// Feeds every check a corrupted input and returns the checks that failed
/// to notice (empty = none of them is vacuous).
[[nodiscard]] Failures self_test();

}  // namespace perfbench
