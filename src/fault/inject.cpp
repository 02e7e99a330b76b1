#include "fault/inject.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "obs/telemetry.hpp"

namespace sc::fault {
namespace {

/// Decorator that wipes the inner fix FSM to its power-on state at the
/// matching cycles (fault.hpp's SEU model).  Carries its own cycle counter
/// across step() calls, so chunked drivers corrupt the same absolute cycle
/// as whole-stream ones.  Deliberately does not override process(): every
/// backend then runs the base step() loop, which is what keeps the
/// corruption cycle exact everywhere.
class FsmCorruptingTransform final : public core::PairTransform {
 public:
  FsmCorruptingTransform(std::unique_ptr<core::PairTransform> inner,
                         std::vector<const FsmFault*> faults)
      : inner_(std::move(inner)), faults_(std::move(faults)) {}

  core::BitPair step(bool x, bool y) override {
    for (const FsmFault* fault : faults_) {
      if (hits(*fault, cycle_)) {
        inner_->reset();
        break;  // one wipe per cycle is as wiped as it gets
      }
    }
    ++cycle_;
    return inner_->step(x, y);
  }

  void reset() override {
    cycle_ = 0;
    inner_->reset();
  }

  [[nodiscard]] unsigned saved_ones() const override { return inner_->saved_ones(); }

  void begin_stream(std::size_t length) override {
    cycle_ = 0;
    inner_->begin_stream(length);
  }

 private:
  static bool hits(const FsmFault& fault, std::size_t cycle) {
    if (cycle < fault.first) return false;
    if (fault.period == 0) return cycle == fault.first;
    return (cycle - fault.first) % fault.period == 0;
  }

  std::unique_ptr<core::PairTransform> inner_;
  std::vector<const FsmFault*> faults_;
  std::size_t cycle_ = 0;
};

/// Applies one edge fault to the span and returns how many bits it
/// actually changed.  `count` gates the extra bookkeeping (stuck-at word
/// paths need a popcount scan to know what they changed): telemetry-free
/// plans pass false and pay nothing beyond the corruption itself.  The
/// corruption applied is identical either way.
std::uint64_t apply_one(const EdgeFault& fault, std::uint64_t key,
                        Bitstream& bits, std::size_t offset, bool count) {
  const std::size_t n = bits.size();
  if (n == 0) return 0;
  // Intersect the fault's active window [begin, end) with this span's
  // global range [offset, offset + n), in local bit indices.
  const std::size_t global_lo = std::max(fault.begin, offset);
  const std::size_t global_hi = std::min(fault.end, offset + n);
  if (global_lo >= global_hi) return 0;
  const std::size_t lo = global_lo - offset;
  const std::size_t hi = global_hi - offset;
  std::uint64_t corrupted = 0;
  switch (fault.kind) {
    case ErrorKind::kStuckAt0: {
      if (lo == 0 && hi == n) {
        if (count) corrupted = bits.count_ones();
        Bitstream::Word* words = bits.word_data();
        const std::size_t word_count = (n + 63) / 64;
        for (std::size_t w = 0; w < word_count; ++w) words[w] = 0;
      } else {
        for (std::size_t i = lo; i < hi; ++i) {
          if (bits.get(i)) {
            ++corrupted;
            bits.set(i, false);
          }
        }
      }
      return corrupted;
    }
    case ErrorKind::kStuckAt1: {
      if (lo == 0 && hi == n) {
        if (count) corrupted = n - bits.count_ones();
        Bitstream::Word* words = bits.word_data();
        const std::size_t word_count = (n + 63) / 64;
        for (std::size_t w = 0; w < word_count; ++w) {
          words[w] = ~Bitstream::Word{0};
        }
        // Keep the padding invariant: bits past size() stay 0 so
        // count_ones and word-wise consumers never see garbage tail bits.
        const unsigned tail = n % 64;
        if (tail != 0) {
          words[word_count - 1] &= (Bitstream::Word{1} << tail) - 1;
        }
      } else {
        for (std::size_t i = lo; i < hi; ++i) {
          if (!bits.get(i)) {
            ++corrupted;
            bits.set(i, true);
          }
        }
      }
      return corrupted;
    }
    case ErrorKind::kBitFlip: {
      for (std::size_t i = lo; i < hi; ++i) {
        if (draw_at(key, offset + i, fault.rate)) {
          bits.set(i, !bits.get(i));
          ++corrupted;
        }
      }
      return corrupted;
    }
    case ErrorKind::kBurst: {
      const std::size_t window = fault.burst_length == 0 ? 1
                                                        : fault.burst_length;
      std::size_t current = std::numeric_limits<std::size_t>::max();
      bool corrupt = false;
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t w = (offset + i) / window;
        if (w != current) {
          current = w;
          corrupt = draw_at(key, w, fault.rate);
        }
        if (corrupt) {
          bits.set(i, !bits.get(i));
          ++corrupted;
        }
      }
      return corrupted;
    }
  }
  return corrupted;
}

}  // namespace

ResolvedFaultPlan resolve(const FaultPlan* plan, const graph::Program& program,
                          const graph::ProgramPlan& exec_plan,
                          obs::Telemetry* telemetry) {
  telemetry = obs::fallback(telemetry);
  ResolvedFaultPlan resolved;
  if (plan == nullptr || plan->empty()) return resolved;
  resolved.seed = plan->seed;
  resolved.edges.resize(program.node_count());
  resolved.fsms.resize(program.node_count());
  if (telemetry != nullptr) {
    resolved.corrupted_total =
        &telemetry->metrics().counter("fault.corrupted_bits");
  }
  for (const EdgeFault& fault : plan->edges) {
    const graph::NodeId id = program.find(fault.edge);
    if (id == graph::kInvalidNode) continue;  // wire absent: nothing to hit
    ResolvedFaultPlan::EdgeSite site;
    site.fault = &fault;
    site.key = fault_key(plan->seed, fault.edge, fault.kind, fault.salt);
    if (telemetry != nullptr) {
      site.corrupted = &telemetry->metrics().counter(
          "fault.edge." + fault.edge + ".corrupted_bits");
    }
    resolved.edges[id].push_back(site);
    resolved.any_edges = true;
  }

  // Per active fix of exec_plan: its position within fixes_for(op) — the
  // lane coordinate the backends wrap by — and its physical-circuit group
  // (the correction-sharing representative, itself when unshared).
  const std::vector<graph::PairFix>& fixes = exec_plan.fixes;
  std::vector<std::int32_t> position(fixes.size(), -1);
  std::vector<std::size_t> group(fixes.size());
  std::map<graph::NodeId, std::int32_t> counters;
  for (std::size_t i = 0; i < fixes.size(); ++i) {
    const graph::PairFix& fix = fixes[i];
    if (fix.fix != graph::FixKind::kNone) position[i] = counters[fix.op_node]++;
    group[i] =
        fix.shared_with >= 0 ? static_cast<std::size_t>(fix.shared_with) : i;
  }

  for (const FsmFault& fault : plan->fsms) {
    const graph::NodeId id = program.find(fault.op);
    if (id == graph::kInvalidNode) continue;
    // The physical circuits this fault addresses through (op, lane)...
    std::set<std::size_t> circuits;
    for (std::size_t i = 0; i < fixes.size(); ++i) {
      const graph::PairFix& fix = fixes[i];
      if (fix.op_node != id || position[i] < 0) continue;
      if (fault.lane >= 0 && fault.lane != position[i]) continue;
      circuits.insert(group[i]);
    }
    // ...wipe every consumer's mirror of those circuits: a shared fix is
    // one state register in hardware, so the SEU's blast radius is every
    // sibling it fans out to (PairFix::shared_with).
    for (std::size_t i = 0; i < fixes.size(); ++i) {
      if (position[i] < 0 || circuits.count(group[i]) == 0) continue;
      resolved.fsms[fixes[i].op_node].push_back({&fault, position[i]});
      resolved.any_fsms = true;
    }
  }
  return resolved;
}

void validate(const FaultPlan& plan, const graph::Program& program) {
  for (const EdgeFault& fault : plan.edges) {
    if (program.find(fault.edge) == graph::kInvalidNode) {
      throw std::invalid_argument("fault::validate: no value named '" +
                                  fault.edge + "' in the program");
    }
    if (fault.kind == ErrorKind::kBurst && fault.burst_length == 0) {
      throw std::invalid_argument(
          "fault::validate: burst_length must be >= 1 on edge '" +
          fault.edge + "'");
    }
  }
  for (const FsmFault& fault : plan.fsms) {
    const graph::NodeId id = program.find(fault.op);
    if (id == graph::kInvalidNode) {
      throw std::invalid_argument("fault::validate: no value named '" +
                                  fault.op + "' in the program");
    }
    if (program.node(id).kind != graph::ProgramNode::Kind::kOp) {
      throw std::invalid_argument("fault::validate: '" + fault.op +
                                  "' is not an op node (FSM faults corrupt "
                                  "planned fixes, which only ops have)");
    }
  }
}

void apply_edge_faults(const ResolvedFaultPlan& resolved, graph::NodeId id,
                       Bitstream& bits, std::size_t offset) {
  if (!resolved.any_edges || id >= resolved.edges.size()) return;
  for (const ResolvedFaultPlan::EdgeSite& site : resolved.edges[id]) {
    const bool count =
        site.corrupted != nullptr || resolved.corrupted_total != nullptr;
    const std::uint64_t corrupted =
        apply_one(*site.fault, site.key, bits, offset, count);
    if (corrupted != 0) {
      if (site.corrupted != nullptr) site.corrupted->add(corrupted);
      if (resolved.corrupted_total != nullptr) {
        resolved.corrupted_total->add(corrupted);
      }
    }
  }
}

std::unique_ptr<core::PairTransform> wrap_fsm_faults(
    std::unique_ptr<core::PairTransform> transform,
    const ResolvedFaultPlan& resolved, graph::NodeId id, unsigned lane) {
  if (transform == nullptr || !resolved.any_fsms ||
      id >= resolved.fsms.size()) {
    return transform;
  }
  std::vector<const FsmFault*> matching;
  for (const ResolvedFaultPlan::FsmSite& site : resolved.fsms[id]) {
    if (site.lane >= 0 && static_cast<unsigned>(site.lane) != lane) continue;
    // A fault can reach one lane through several sites (e.g. addressed
    // both directly and via a shared sibling); one wipe per cycle is all
    // a wipe can do, so dedup keeps the wrapper minimal.
    if (std::find(matching.begin(), matching.end(), site.fault) ==
        matching.end()) {
      matching.push_back(site.fault);
    }
  }
  if (matching.empty()) return transform;
  return std::make_unique<FsmCorruptingTransform>(std::move(transform),
                                                  std::move(matching));
}

}  // namespace sc::fault
