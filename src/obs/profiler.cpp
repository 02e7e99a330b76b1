#include "obs/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "common/json.hpp"

namespace sc::obs {
namespace {

/// Mutable tree used during aggregation (ProfileNode's children vector
/// would invalidate pointers while the containment stack still holds
/// them, so build with stable map-based nodes and convert at the end).
struct BuildNode {
  std::uint64_t calls = 0;
  double inclusive_us = 0.0;
  double children_inclusive_us = 0.0;
  std::map<std::string, BuildNode> children;
};

struct StackEntry {
  double end_us;
  BuildNode* node;
};

ProfileNode finalize(const std::string& name, const BuildNode& b) {
  ProfileNode node;
  node.name = name;
  node.calls = b.calls;
  node.inclusive_us = b.inclusive_us;
  // Clock jitter can make children marginally exceed the parent; clamp so
  // a profile never reports negative self time.
  node.exclusive_us = std::max(0.0, b.inclusive_us - b.children_inclusive_us);
  node.children.reserve(b.children.size());
  for (const auto& [child_name, child] : b.children) {
    node.children.push_back(finalize(child_name, child));
  }
  std::sort(node.children.begin(), node.children.end(),
            [](const ProfileNode& a, const ProfileNode& c) {
              return a.inclusive_us > c.inclusive_us;
            });
  return node;
}

/// Folds one thread's events (sorted by start time, longer-first on ties)
/// into a forest keyed by span name.
void fold_thread(const std::vector<const TraceEvent*>& events,
                 std::map<std::string, BuildNode>* roots) {
  std::vector<StackEntry> stack;
  for (const TraceEvent* e : events) {
    const double start = e->ts_us;
    const double end = e->ts_us + e->dur_us;
    // Unwind spans that finished before this one starts.  Ties (a span
    // ending exactly where the next starts) unwind too: back-to-back
    // siblings, not nesting.
    while (!stack.empty() && stack.back().end_us <= start) stack.pop_back();
    std::map<std::string, BuildNode>* scope =
        stack.empty() ? roots : &stack.back().node->children;
    BuildNode& node = (*scope)[e->name];
    node.calls += 1;
    node.inclusive_us += e->dur_us;
    if (!stack.empty()) stack.back().node->children_inclusive_us += e->dur_us;
    stack.push_back({end, &node});
  }
}

void merge_into(const ProfileNode& src, std::vector<ProfileNode>* dst) {
  for (ProfileNode& d : *dst) {
    if (d.name == src.name) {
      d.calls += src.calls;
      d.inclusive_us += src.inclusive_us;
      d.exclusive_us += src.exclusive_us;
      for (const ProfileNode& child : src.children) {
        merge_into(child, &d.children);
      }
      return;
    }
  }
  dst->push_back(src);
}

void sort_by_inclusive(std::vector<ProfileNode>* nodes) {
  std::sort(nodes->begin(), nodes->end(),
            [](const ProfileNode& a, const ProfileNode& b) {
              return a.inclusive_us > b.inclusive_us;
            });
  for (ProfileNode& n : *nodes) sort_by_inclusive(&n.children);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

void node_json(const ProfileNode& node, std::ostringstream* out) {
  *out << "{\"name\": \"" << json_escape(node.name)
       << "\", \"calls\": " << node.calls
       << ", \"inclusive_us\": " << fmt(node.inclusive_us)
       << ", \"exclusive_us\": " << fmt(node.exclusive_us)
       << ", \"children\": [";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i != 0) *out << ", ";
    node_json(node.children[i], out);
  }
  *out << "]}";
}

/// Collapsed-stack frame names use ';' as the separator; a name carrying
/// one would split the frame, so it is replaced.
std::string frame_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == ';' || c == '\n') c = ':';
  }
  return out;
}

void collect_collapsed(const ProfileNode& node, const std::string& prefix,
                       std::ostringstream* out) {
  const std::string path =
      prefix.empty() ? frame_name(node.name) : prefix + ";" + frame_name(node.name);
  if (node.exclusive_us > 0.0) {
    // Round, but never round a hot path down to invisibility.
    const auto value = static_cast<std::uint64_t>(
        std::max(1.0, std::floor(node.exclusive_us + 0.5)));
    *out << path << " " << value << "\n";
  }
  for (const ProfileNode& child : node.children) {
    collect_collapsed(child, path, out);
  }
}

struct FlatRow {
  const ProfileNode* node;
  std::string path;
};

void flatten(const ProfileNode& node, const std::string& prefix,
             std::vector<FlatRow>* rows) {
  const std::string path =
      prefix.empty() ? node.name : prefix + ";" + node.name;
  rows->push_back({&node, path});
  for (const ProfileNode& child : node.children) flatten(child, path, rows);
}

double exclusive_sum(const ProfileNode& node) {
  double sum = node.exclusive_us;
  for (const ProfileNode& child : node.children) sum += exclusive_sum(child);
  return sum;
}

}  // namespace

double Profile::exclusive_sum_us() const {
  double sum = 0.0;
  for (const ProfileNode& root : roots) sum += exclusive_sum(root);
  return sum;
}

std::string Profile::to_table(std::size_t top_n) const {
  std::vector<FlatRow> rows;
  for (const ProfileNode& root : roots) flatten(root, "", &rows);
  std::sort(rows.begin(), rows.end(), [](const FlatRow& a, const FlatRow& b) {
    return a.node->exclusive_us > b.node->exclusive_us;
  });
  if (rows.size() > top_n) rows.resize(top_n);

  std::ostringstream out;
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%-12s %10s %14s %14s  %s\n", "excl%",
                "calls", "excl us", "incl us", "span");
  out << buf;
  for (const FlatRow& row : rows) {
    const double pct =
        total_us > 0.0 ? 100.0 * row.node->exclusive_us / total_us : 0.0;
    std::snprintf(buf, sizeof(buf), "%-12.2f %10llu %14.1f %14.1f  %s\n", pct,
                  static_cast<unsigned long long>(row.node->calls),
                  row.node->exclusive_us, row.node->inclusive_us,
                  row.path.c_str());
    out << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "total %.1f us over %zu spans (%llu dropped)\n", total_us,
                span_count, static_cast<unsigned long long>(dropped_events));
  out << buf;
  return out.str();
}

std::string Profile::to_json() const {
  std::ostringstream out;
  out << "{\"total_us\": " << fmt(total_us)
      << ", \"span_count\": " << span_count
      << ", \"dropped_events\": " << dropped_events << ", \"roots\": [";
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (i != 0) out << ", ";
    node_json(roots[i], &out);
  }
  out << "]}\n";
  return out.str();
}

std::string Profile::to_collapsed() const {
  std::ostringstream out;
  for (const ProfileNode& root : roots) collect_collapsed(root, "", &out);
  return out.str();
}

Profile build_profile(std::vector<TraceEvent> events, std::uint64_t dropped) {
  Profile profile;
  profile.dropped_events = dropped;

  // Group complete events by tid.
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& e : events) {
    if (e.phase != 'X') continue;
    by_tid[e.tid].push_back(&e);
    ++profile.span_count;
  }

  for (auto& [tid, thread_events] : by_tid) {
    // Containment order: by start time; on equal starts the longer span is
    // the parent.  (The ring holds events in *end* order — spans are
    // recorded at destruction — so this sort is what recovers nesting.)
    std::sort(thread_events.begin(), thread_events.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                return a->dur_us > b->dur_us;
              });
    std::map<std::string, BuildNode> roots;
    fold_thread(thread_events, &roots);

    ThreadProfile thread;
    thread.tid = tid;
    for (const auto& [name, node] : roots) {
      thread.roots.push_back(finalize(name, node));
    }
    std::sort(thread.roots.begin(), thread.roots.end(),
              [](const ProfileNode& a, const ProfileNode& b) {
                return a.inclusive_us > b.inclusive_us;
              });
    for (const ProfileNode& root : thread.roots) {
      merge_into(root, &profile.roots);
    }
    profile.threads.push_back(std::move(thread));
  }

  sort_by_inclusive(&profile.roots);
  for (const ProfileNode& root : profile.roots) {
    profile.total_us += root.inclusive_us;
  }
  return profile;
}

Profile build_profile(const Tracer& tracer) {
  return build_profile(tracer.events(), tracer.dropped_events());
}

}  // namespace sc::obs
