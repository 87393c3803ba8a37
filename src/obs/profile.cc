#include "obs/profile.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "obs/json.h"

namespace phoenix::obs {
namespace {

const TraceArg* FindArg(const std::vector<TraceArg>& args,
                        std::string_view key) {
  for (const TraceArg& a : args) {
    if (a.key == key) return &a;
  }
  return nullptr;
}

// Numeric arg lookup; returns `fallback` when absent or non-numeric.
double ArgNumber(const std::vector<TraceArg>& args, std::string_view key,
                 double fallback = 0) {
  const TraceArg* a = FindArg(args, key);
  if (a == nullptr) return fallback;
  char* end = nullptr;
  double v = std::strtod(a->value.c_str(), &end);
  if (end == a->value.c_str()) return fallback;
  return v;
}

std::string ArgString(const std::vector<TraceArg>& args, std::string_view key) {
  const TraceArg* a = FindArg(args, key);
  return a == nullptr ? std::string() : a->value;
}

// End args override begin args of the same key (e.g. a span that refines an
// estimate at close).
void MergeArgs(std::vector<TraceArg>& into, const std::vector<TraceArg>& more) {
  for (const TraceArg& a : more) {
    bool replaced = false;
    for (TraceArg& existing : into) {
      if (existing.key == a.key) {
        existing = a;
        replaced = true;
        break;
      }
    }
    if (!replaced) into.push_back(a);
  }
}

// Charges `node`'s self time into `phases`, splitting disk force spans by
// their recorded seek/rotational/transfer breakdown.
void ChargeSelf(const ProfileNode& node, std::map<std::string, double>* phases) {
  std::string bucket = PhaseBucket(node);
  if (bucket != "disk") {
    (*phases)[bucket] += node.self_ms;
    return;
  }
  double seek = ArgNumber(node.args, "seek_ms");
  double rot = ArgNumber(node.args, "rotational_wait_ms");
  double xfer = ArgNumber(node.args, "transfer_ms");
  // The residual keeps the invariant that phases sum to the chain's wall
  // clock even when a force span reports a partial breakdown (truncated by
  // a crash) — it may then go negative, flagging the truncation. Subtraction
  // residue below a picosecond is noise, not signal.
  double residual = node.self_ms - seek - rot - xfer;
  if (std::fabs(residual) < 1e-9) residual = 0;
  (*phases)["disk.seek"] += seek;
  (*phases)["disk.rotational"] += rot;
  (*phases)["disk.transfer"] += xfer;
  (*phases)["disk.other"] += residual;
}

void AccumulateSubtree(const ProfileReport& report, size_t index,
                       std::map<std::string, double>* phases,
                       size_t* span_count, size_t* annotation_count) {
  const ProfileNode& node = report.nodes[index];
  ChargeSelf(node, phases);
  ++*span_count;
  *annotation_count += node.annotations.size();
  for (size_t child : node.children) {
    AccumulateSubtree(report, child, phases, span_count, annotation_count);
  }
}

std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

std::string PadLeft(std::string s, size_t width) {
  if (s.size() < width) s.insert(0, width - s.size(), ' ');
  return s;
}

std::string PadRight(std::string s, size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

// One-line label for a node in tree/critical-path rendering.
std::string NodeLabel(const ProfileNode& node) {
  std::string out = node.category;
  out += "/";
  out += node.name;
  out += " @";
  out += node.component.empty() ? "?" : node.component;
  return out;
}

void RenderTree(const ProfileReport& report, size_t index, int depth,
                const std::vector<bool>& on_critical_path, std::string* out) {
  const ProfileNode& node = report.nodes[index];
  out->append("    ");
  out->append(on_critical_path[index] ? "* " : "  ");
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(Fmt("[%.3f] ", node.start_ms));
  out->append(NodeLabel(node));
  out->append(Fmt(" dur=%.3f", node.dur_ms));
  out->append(Fmt(" self=%.3f", node.self_ms));
  std::string outcome = ArgString(node.args, "outcome");
  if (!outcome.empty()) {
    out->append(" outcome=");
    out->append(outcome);
  }
  if (!ArgString(node.args, "dedupe").empty()) out->append(" dedupe=hit");
  if (!ArgString(node.args, "replay").empty()) out->append(" replay=suppressed");
  if (node.truncated) out->append(" [truncated]");
  out->append("\n");
  for (size_t ann : node.annotations) {
    const TraceEvent& instant = report.instants[ann];
    out->append("      ");
    out->append(static_cast<size_t>(depth) * 2 + 2, ' ');
    out->append(Fmt("· [%.3f] ", instant.ts_ms));
    out->append(instant.category);
    out->append("/");
    out->append(instant.name);
    out->append("\n");
  }
  for (size_t child : node.children) {
    RenderTree(report, child, depth + 1, on_critical_path, out);
  }
}

}  // namespace

std::string PhaseBucket(const ProfileNode& node) {
  if (node.category == "call" || node.category == "intercept") {
    return "execution";
  }
  if (node.category == "net") return "network";
  if (node.category == "log" && node.name == "force") return "disk";
  if (node.category == "wal" && node.name == "wait") {
    return ArgString(node.args, "outcome") == "inline" ? "durability.dispatch"
                                                       : "durability.park";
  }
  if (node.category == "checkpoint") return "checkpoint";
  if (node.category == "recovery") {
    // Replay spans (the activator's replay at admission and each context's
    // on-demand materialization) get their own bucket so recovery time
    // splits into analysis/plan-scan vs rebuild work.
    if (node.name == "replay" || node.name == "materialize") {
      return "recovery.replay";
    }
    return "recovery";
  }
  return "other";
}

ProfileReport BuildProfile(const std::vector<TraceEvent>& events) {
  ProfileReport report;
  report.event_count = events.size();
  if (!events.empty()) {
    report.trace_start_ms = events.front().ts_ms;
    report.trace_end_ms = events.front().ts_ms;
  }
  double max_ts = 0;
  for (const TraceEvent& e : events) {
    report.trace_start_ms = std::min(report.trace_start_ms, e.ts_ms);
    report.trace_end_ms = std::max(report.trace_end_ms, e.ts_ms);
    max_ts = std::max(max_ts, e.ts_ms);
  }

  // Pair begin/end events by span id.
  std::unordered_map<uint64_t, size_t> by_span;
  for (const TraceEvent& e : events) {
    if (e.phase == TracePhase::kBegin && e.span_id != 0) {
      ProfileNode node;
      node.category = e.category;
      node.name = e.name;
      node.component = e.component;
      node.trace_id = e.trace_id;
      node.span_id = e.span_id;
      node.parent_span_id = e.parent_span_id;
      node.start_ms = e.ts_ms;
      node.end_ms = e.ts_ms;
      node.truncated = true;  // until the end event shows up
      node.args = e.args;
      by_span.emplace(e.span_id, report.nodes.size());
      report.nodes.push_back(std::move(node));
      ++report.span_count;
    } else if (e.phase == TracePhase::kEnd && e.span_id != 0) {
      auto it = by_span.find(e.span_id);
      if (it != by_span.end()) {
        ProfileNode& node = report.nodes[it->second];
        node.end_ms = e.ts_ms;
        node.truncated = false;
        MergeArgs(node.args, e.args);
      } else {
        // Begin evicted from a flight-recorder ring: surface the span with
        // zero extent rather than dropping the evidence.
        ProfileNode node;
        node.category = e.category;
        node.name = e.name;
        node.component = e.component;
        node.trace_id = e.trace_id;
        node.span_id = e.span_id;
        node.parent_span_id = e.parent_span_id;
        node.start_ms = e.ts_ms;
        node.end_ms = e.ts_ms;
        node.truncated = true;
        node.args = e.args;
        by_span.emplace(e.span_id, report.nodes.size());
        report.nodes.push_back(std::move(node));
        ++report.span_count;
      }
    } else if (e.phase == TracePhase::kInstant) {
      ++report.instant_count;
    }
  }
  // Spans still open at the end of the trace (crash mid-span) extend to the
  // last observed timestamp.
  for (ProfileNode& node : report.nodes) {
    if (node.truncated && node.end_ms == node.start_ms) node.end_ms = max_ts;
    node.dur_ms = node.end_ms - node.start_ms;
  }

  // Attach chain-linked instants as annotations on their parent span.
  for (const TraceEvent& e : events) {
    if (e.phase != TracePhase::kInstant || e.parent_span_id == 0) continue;
    auto it = by_span.find(e.parent_span_id);
    if (it == by_span.end()) continue;
    report.nodes[it->second].annotations.push_back(report.instants.size());
    report.instants.push_back(e);
  }

  // Wire up parent -> children edges; everything else is a root.
  std::vector<size_t> roots;
  for (size_t i = 0; i < report.nodes.size(); ++i) {
    const ProfileNode& node = report.nodes[i];
    auto it = node.parent_span_id != 0 ? by_span.find(node.parent_span_id)
                                       : by_span.end();
    if (it != by_span.end()) {
      report.nodes[it->second].children.push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  for (ProfileNode& node : report.nodes) {
    std::sort(node.children.begin(), node.children.end(),
              [&](size_t a, size_t b) {
                const ProfileNode& na = report.nodes[a];
                const ProfileNode& nb = report.nodes[b];
                if (na.start_ms != nb.start_ms) return na.start_ms < nb.start_ms;
                return na.span_id < nb.span_id;
              });
    double child_ms = 0;
    for (size_t child : node.children) child_ms += report.nodes[child].dur_ms;
    node.self_ms = node.dur_ms - child_ms;
  }

  // Chains: one per chain-identified root; chainless roots aggregate apart.
  for (size_t root : roots) {
    const ProfileNode& node = report.nodes[root];
    if (node.trace_id == 0) {
      size_t spans = 0, annotations = 0;
      AccumulateSubtree(report, root, &report.unchained_phase_ms, &spans,
                        &annotations);
      continue;
    }
    ChainProfile chain;
    chain.trace_id = node.trace_id;
    chain.root = root;
    chain.method = node.name;
    chain.component = node.component;
    chain.start_ms = node.start_ms;
    chain.dur_ms = node.dur_ms;
    AccumulateSubtree(report, root, &chain.phase_ms, &chain.span_count,
                      &chain.annotation_count);
    // Critical path: descend into the longest child at each level.
    size_t at = root;
    chain.critical_path.push_back(at);
    while (!report.nodes[at].children.empty()) {
      size_t best = report.nodes[at].children.front();
      for (size_t child : report.nodes[at].children) {
        if (report.nodes[child].dur_ms > report.nodes[best].dur_ms) {
          best = child;
        }
      }
      chain.critical_path.push_back(best);
      at = best;
    }
    report.chains.push_back(std::move(chain));
  }
  std::sort(report.chains.begin(), report.chains.end(),
            [](const ChainProfile& a, const ChainProfile& b) {
              if (a.dur_ms != b.dur_ms) return a.dur_ms > b.dur_ms;
              return a.trace_id < b.trace_id;
            });
  for (const ChainProfile& chain : report.chains) {
    for (const auto& [phase, ms] : chain.phase_ms) {
      report.total_phase_ms[phase] += ms;
    }
  }
  return report;
}

std::string RenderProfileText(const ProfileReport& report, size_t top_n) {
  std::string out;
  out += "phoenix_prof: ";
  out += std::to_string(report.event_count) + " events (";
  out += std::to_string(report.span_count) + " spans, ";
  out += std::to_string(report.instant_count) + " instants), ";
  out += std::to_string(report.chains.size()) + " chains, ";
  out += Fmt("%.3f", report.trace_start_ms) + " - " +
         Fmt("%.3f ms\n", report.trace_end_ms);

  double chain_total = 0;
  for (const ChainProfile& chain : report.chains) chain_total += chain.dur_ms;

  out += "\n-- phase breakdown (all chains) --\n";
  out += PadRight("phase", 22) + PadLeft("total_ms", 12) + PadLeft("%", 8) +
         "\n";
  double attributed = 0;
  for (const auto& [phase, ms] : report.total_phase_ms) {
    attributed += ms;
    double pct = chain_total > 0 ? 100.0 * ms / chain_total : 0;
    out += PadRight(phase, 22) + PadLeft(Fmt("%.3f", ms), 12) +
           PadLeft(Fmt("%.1f", pct), 8) + "\n";
  }
  out += PadRight("total", 22) + PadLeft(Fmt("%.3f", attributed), 12) +
         PadLeft(chain_total > 0 ? "100.0" : "0.0", 8) + "\n";
  if (!report.unchained_phase_ms.empty()) {
    out += "\n-- outside any chain (scheduler-issued work) --\n";
    for (const auto& [phase, ms] : report.unchained_phase_ms) {
      out += PadRight(phase, 22) + PadLeft(Fmt("%.3f", ms), 12) + "\n";
    }
  }

  // Per-root-method aggregation.
  struct MethodAgg {
    size_t chains = 0;
    double total_ms = 0;
    double slowest_ms = 0;
  };
  std::map<std::string, MethodAgg> by_method;
  for (const ChainProfile& chain : report.chains) {
    MethodAgg& agg = by_method[chain.method];
    ++agg.chains;
    agg.total_ms += chain.dur_ms;
    agg.slowest_ms = std::max(agg.slowest_ms, chain.dur_ms);
  }
  out += "\n-- per-method --\n";
  out += PadRight("method", 26) + PadLeft("chains", 8) +
         PadLeft("total_ms", 12) + PadLeft("mean_ms", 10) +
         PadLeft("slowest_ms", 12) + "\n";
  for (const auto& [method, agg] : by_method) {
    out += PadRight(method, 26) + PadLeft(std::to_string(agg.chains), 8) +
           PadLeft(Fmt("%.3f", agg.total_ms), 12) +
           PadLeft(Fmt("%.3f", agg.total_ms / static_cast<double>(agg.chains)),
                   10) +
           PadLeft(Fmt("%.3f", agg.slowest_ms), 12) + "\n";
  }

  size_t shown = std::min(top_n, report.chains.size());
  out += "\n-- slowest chains (top " + std::to_string(shown) +
         ", * = critical path) --\n";
  for (size_t i = 0; i < shown; ++i) {
    const ChainProfile& chain = report.chains[i];
    out += "\n#" + std::to_string(i + 1) + " trace " +
           std::to_string(chain.trace_id) + "  " + chain.method + " @" +
           chain.component + Fmt("  dur=%.3f ms", chain.dur_ms) + "  (" +
           std::to_string(chain.span_count) + " spans, " +
           std::to_string(chain.annotation_count) + " annotations)\n";
    out += "    phases:";
    // Largest buckets first so the dominant phase reads off the front.
    std::vector<std::pair<std::string, double>> phases(chain.phase_ms.begin(),
                                                       chain.phase_ms.end());
    std::sort(phases.begin(), phases.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    for (const auto& [phase, ms] : phases) {
      out += " " + phase + "=" + Fmt("%.3f", ms);
    }
    out += "\n";
    std::vector<bool> on_path(report.nodes.size(), false);
    for (size_t index : chain.critical_path) on_path[index] = true;
    RenderTree(report, chain.root, 0, on_path, &out);
  }
  return out;
}

std::string ProfileToJson(const ProfileReport& report) {
  JsonWriter w(2);
  w.BeginObject();
  w.Key("schema").String("phoenix.prof.v1");
  w.Key("events").Number(static_cast<uint64_t>(report.event_count));
  w.Key("spans").Number(static_cast<uint64_t>(report.span_count));
  w.Key("instants").Number(static_cast<uint64_t>(report.instant_count));
  w.Key("trace_start_ms").Number(report.trace_start_ms);
  w.Key("trace_end_ms").Number(report.trace_end_ms);
  w.Key("phase_totals_ms").BeginObject();
  for (const auto& [phase, ms] : report.total_phase_ms) {
    w.Key(phase).Number(ms);
  }
  w.EndObject();
  w.Key("unchained_phase_ms").BeginObject();
  for (const auto& [phase, ms] : report.unchained_phase_ms) {
    w.Key(phase).Number(ms);
  }
  w.EndObject();
  w.Key("chains").BeginArray();
  for (const ChainProfile& chain : report.chains) {
    w.BeginObject();
    w.Key("trace").Number(chain.trace_id);
    w.Key("method").String(chain.method);
    w.Key("component").String(chain.component);
    w.Key("start_ms").Number(chain.start_ms);
    w.Key("dur_ms").Number(chain.dur_ms);
    w.Key("spans").Number(static_cast<uint64_t>(chain.span_count));
    w.Key("annotations").Number(static_cast<uint64_t>(chain.annotation_count));
    w.Key("phases_ms").BeginObject();
    for (const auto& [phase, ms] : chain.phase_ms) {
      w.Key(phase).Number(ms);
    }
    w.EndObject();
    w.Key("critical_path").BeginArray();
    for (size_t index : chain.critical_path) {
      const ProfileNode& node = report.nodes[index];
      w.BeginObject();
      w.Key("cat").String(node.category);
      w.Key("name").String(node.name);
      w.Key("comp").String(node.component);
      w.Key("dur_ms").Number(node.dur_ms);
      w.Key("self_ms").Number(node.self_ms);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace phoenix::obs
