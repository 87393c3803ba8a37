#ifndef PHOENIX_OBS_PROFILE_H_
#define PHOENIX_OBS_PROFILE_H_

// Call-tree reconstruction and latency attribution over a recorded trace.
//
// The runtime threads a causal identity (trace id / span id / parent span)
// through every message, so the per-process spans in a JSONL trace form one
// tree per end-to-end call chain. This module rebuilds those trees, charges
// every span's *self time* (duration minus direct children) to a phase
// bucket — execution, network, disk seek/rotational/transfer, durability
// wait split into parked-in-group-commit vs own-force dispatch — and
// computes the critical path of the slowest chains. Because self times
// partition a chain's wall clock exactly, each chain's phase breakdown sums
// to its end-to-end latency (within floating-point rounding).
//
// Everything here is deterministic: same trace bytes in, same report out.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/tracer.h"

namespace phoenix::obs {

// One begin/end span pair reconstructed from the trace.
struct ProfileNode {
  std::string category;
  std::string name;
  std::string component;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  double start_ms = 0;
  double end_ms = 0;
  double dur_ms = 0;
  // Duration minus the durations of direct children: the time this span
  // spent doing its own work. The attribution unit.
  double self_ms = 0;
  // Merged begin+end arguments (end wins on duplicate keys).
  std::vector<TraceArg> args;
  std::vector<size_t> children;  // indices into ProfileReport::nodes
  // Linked instants (retries, drops, dedupe hits) whose parent is this span.
  std::vector<size_t> annotations;  // indices into ProfileReport::instants
  // True when the end (or begin) event is missing — crash mid-span or a
  // flight-recorder ring that evicted it. Durations are best-effort.
  bool truncated = false;
};

// One end-to-end call chain: a root span (no parent) and its subtree.
struct ChainProfile {
  uint64_t trace_id = 0;
  size_t root = 0;  // index into ProfileReport::nodes
  std::string method;
  std::string component;
  double start_ms = 0;
  double dur_ms = 0;
  size_t span_count = 0;
  size_t annotation_count = 0;
  // Phase bucket -> milliseconds. Sums to dur_ms (within rounding).
  std::map<std::string, double> phase_ms;
  // Root-to-leaf walk taking the longest child at each step.
  std::vector<size_t> critical_path;  // indices into ProfileReport::nodes
};

struct ProfileReport {
  std::vector<ProfileNode> nodes;
  // Chain-linked instants, kept for annotation rendering.
  std::vector<TraceEvent> instants;
  // Sorted by dur_ms descending (ties: trace_id ascending).
  std::vector<ChainProfile> chains;
  // Phase totals across every chain.
  std::map<std::string, double> total_phase_ms;
  // Self time of spans outside any chain (trace_id 0): group-commit flushes
  // issued from the scheduler, component-scoped maintenance.
  std::map<std::string, double> unchained_phase_ms;
  size_t event_count = 0;
  size_t span_count = 0;
  size_t instant_count = 0;
  double trace_start_ms = 0;
  double trace_end_ms = 0;
};

// Phase bucket a node's self time belongs to: "execution", "network",
// "disk.seek" / "disk.rotational" / "disk.transfer" / "disk.other" (force
// spans split by their recorded breakdown args), "durability.park",
// "durability.dispatch", "checkpoint", "recovery", "recovery.replay"
// (replay spans: the activator's replay at admission and every
// materialization),
// "other". Disk force spans return "disk" here; BuildProfile does the
// arg-driven sub-split.
std::string PhaseBucket(const ProfileNode& node);

// Rebuilds the call forest and attributes every span's self time.
ProfileReport BuildProfile(const std::vector<TraceEvent>& events);

// Human-readable report: phase breakdown table, per-method aggregation and
// the top `top_n` slowest chains with their trees and critical paths.
std::string RenderProfileText(const ProfileReport& report, size_t top_n);

// Machine-readable report (schema "phoenix.prof.v1"), pretty-printed,
// deterministic member order.
std::string ProfileToJson(const ProfileReport& report);

}  // namespace phoenix::obs

#endif  // PHOENIX_OBS_PROFILE_H_
