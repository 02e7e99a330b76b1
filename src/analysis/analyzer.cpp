#include "analysis/analyzer.hpp"

#include "analysis/error_model.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "bitstream/encoding.hpp"
#include "common/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "rng/lfsr.hpp"

namespace sc::analysis {

using graph::FixKind;
using graph::NodeId;
using graph::OperatorDef;
using graph::PairFix;
using graph::ProgramNode;
using graph::Requirement;
using graph::seeds::Role;
using graph::seeds::derive_seed32;

std::string to_string(SccClass value) {
  switch (value) {
    case SccClass::kCorrelated:
      return "correlated";
    case SccClass::kIndependent:
      return "independent";
    case SccClass::kAnticorrelated:
      return "anticorrelated";
    case SccClass::kUnknown:
      return "unknown";
  }
  return "?";
}

std::string to_string(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "?";
}

bool class_satisfies(Requirement requirement, SccClass value) {
  switch (requirement) {
    case Requirement::kAgnostic:
      return true;
    case Requirement::kUncorrelated:
      return value == SccClass::kIndependent;
    case Requirement::kPositive:
      return value == SccClass::kCorrelated;
    case Requirement::kNegative:
      return value == SccClass::kAnticorrelated;
  }
  return false;
}

AnalyzerConfig AnalyzerConfig::from(const graph::ExecConfig& config) {
  AnalyzerConfig out;
  out.stream_length = config.stream_length;
  out.width = config.width;
  out.seed = config.seed;
  out.sync_depth = config.sync_depth;
  out.shuffle_depth = config.shuffle_depth;
  out.telemetry = config.telemetry;
  return out;
}

namespace {

void insert_sorted(std::vector<GeneratorId>& set, const GeneratorId& id) {
  const auto it = std::lower_bound(set.begin(), set.end(), id);
  if (it == set.end() || *it != id) set.insert(it, id);
}

bool disjoint(const std::vector<GeneratorId>& a,
              const std::vector<GeneratorId>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return false;
    }
  }
  return true;
}

/// Abstract final state of one operand slot after the node's fixes ran.
struct SlotAbs {
  enum class Last {
    kRaw,          ///< untouched operand stream
    kShuffled,     ///< last transform re-shuffled / re-encoded it with an
                   ///< independent schedule (decorrelates vs everything)
    kPaired,       ///< last transform pairs it with its partner slot
  };
  Last last = Last::kRaw;
  FixKind paired_kind = FixKind::kNone;
  std::size_t paired_fix = 0;  ///< identity of the pairing fix application
};

/// Applies one fix to the slot states (the slot-wise semantics of the
/// backends' fix application loop).
void apply_fix_abstract(std::vector<SlotAbs>& slots, const PairFix& fix,
                        std::size_t fix_identity) {
  SlotAbs& a = slots[fix.operand_a];
  SlotAbs& b = slots[fix.operand_b];
  switch (fix.fix) {
    case FixKind::kDecorrelator:
    case FixKind::kRegenerateDistinct:
      // Both slots leave on fresh independent schedules.
      a.last = SlotAbs::Last::kShuffled;
      b.last = SlotAbs::Last::kShuffled;
      break;
    case FixKind::kDecorrelatorChain:
      // Chain link: slot b becomes shuffle(slot a); a passes through.
      b.last = SlotAbs::Last::kShuffled;
      break;
    case FixKind::kSynchronizer:
    case FixKind::kDesynchronizer:
    case FixKind::kRegenerateShared:
    case FixKind::kRegenerateComplementary:
      a.last = SlotAbs::Last::kPaired;
      a.paired_kind = fix.fix;
      a.paired_fix = fix_identity;
      b.last = SlotAbs::Last::kPaired;
      b.paired_kind = fix.fix;
      b.paired_fix = fix_identity;
      break;
    case FixKind::kNone:
      break;
  }
}

/// Class of a slot pair given the final slot states and the raw-operand
/// class.  A slot on a fresh independent schedule is uncorrelated with
/// every other stream (the plan_covers chain rule); paired slots carry
/// the regime their shared circuit drives; anything half-transformed is
/// unknown.
SccClass slot_pair_class(const SlotAbs& a, const SlotAbs& b,
                         SccClass raw_class) {
  if (a.last == SlotAbs::Last::kShuffled || b.last == SlotAbs::Last::kShuffled) {
    return SccClass::kIndependent;
  }
  if (a.last == SlotAbs::Last::kPaired && b.last == SlotAbs::Last::kPaired &&
      a.paired_fix == b.paired_fix) {
    switch (a.paired_kind) {
      case FixKind::kSynchronizer:
      case FixKind::kRegenerateShared:
        return SccClass::kCorrelated;
      case FixKind::kDesynchronizer:
      case FixKind::kRegenerateComplementary:
        return SccClass::kAnticorrelated;
      default:
        return SccClass::kUnknown;
    }
  }
  if (a.last == SlotAbs::Last::kRaw && b.last == SlotAbs::Last::kRaw) {
    return raw_class;
  }
  return SccClass::kUnknown;
}

double sync_state_bits(unsigned sync_depth) {
  // Up/down counter over [-depth, +depth].
  return std::ceil(std::log2(2.0 * static_cast<double>(sync_depth) + 1.0));
}

}  // namespace

std::size_t AnalysisReport::count(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

SccClass AnalysisReport::node_class(NodeId a, NodeId b) const {
  if (a == b) return SccClass::kCorrelated;
  const NodeFacts& fa = facts[a];
  const NodeFacts& fb = facts[b];
  // Structurally identical computations produce bit-identical streams.
  if (fa.value_number == fb.value_number) return SccClass::kCorrelated;
  // Threshold encodings of one trace: exact +1 (same comparison
  // direction) or exact -1 (opposite).
  if (fa.has_tgen && fb.has_tgen && fa.tgen == fb.tgen) {
    return fa.tgen_inverted == fb.tgen_inverted ? SccClass::kCorrelated
                                                : SccClass::kAnticorrelated;
  }
  // Disjoint randomness cones — in *effective generator* space, so a
  // width-masked seed collision correctly defeats the claim.
  if (disjoint(fa.provenance, fb.provenance)) return SccClass::kIndependent;
  return SccClass::kUnknown;
}

std::string AnalysisReport::to_text() const {
  std::ostringstream out;
  for (const Diagnostic& d : diagnostics) {
    out << to_string(d.severity) << "[" << d.id << "]";
    if (d.node != graph::kInvalidNode) {
      out << " node #" << d.node;
      if (!d.name.empty()) out << " '" << d.name << "'";
    }
    out << ": " << d.message << "\n";
  }
  out << count(Severity::kError) << " error(s), " << count(Severity::kWarning)
      << " warning(s), " << count(Severity::kNote) << " note(s); "
      << pairs.size() << " pair(s) checked; fragility " << fragility
      << "; error bound " << worst_error_bound << "\n";
  return out.str();
}

std::string AnalysisReport::to_json(const std::string& source) const {
  std::ostringstream out;
  out << "{\n  \"source\": \"" << json_escape(source)
      << "\",\n  \"summary\": {\"errors\": " << count(Severity::kError)
      << ", \"warnings\": " << count(Severity::kWarning)
      << ", \"notes\": " << count(Severity::kNote) << "},\n"
      << "  \"fragility\": " << fragility << ",\n  \"error_bound\": "
      << worst_error_bound << ",\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    out << (i == 0 ? "" : ",") << "\n    {\"id\": \"" << json_escape(d.id)
        << "\", \"severity\": \"" << to_string(d.severity) << "\", \"node\": "
        << (d.node == graph::kInvalidNode
                ? -1
                : static_cast<std::int64_t>(d.node))
        << ", \"name\": \"" << json_escape(d.name) << "\", \"message\": \""
        << json_escape(d.message) << "\"}";
  }
  out << (diagnostics.empty() ? "" : "\n  ") << "],\n  \"pairs\": [";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const PairPrediction& p = pairs[i];
    out << (i == 0 ? "" : ",") << "\n    {\"op_node\": " << p.op_node
        << ", \"operand_a\": " << p.operand_a
        << ", \"operand_b\": " << p.operand_b << ", \"requirement\": \""
        << graph::to_string(p.requirement) << "\", \"fix\": \""
        << graph::to_string(p.fix) << "\", \"operands\": \""
        << to_string(p.operands) << "\", \"at_gate\": \""
        << to_string(p.at_gate) << "\", \"satisfied\": "
        << (p.satisfied ? "true" : "false") << "}";
  }
  out << (pairs.empty() ? "" : "\n  ") << "]\n}\n";
  return out.str();
}

namespace {

/// Shared worker behind analyze() / plan_fragility().
class Analyzer {
 public:
  Analyzer(const graph::Program& program, const graph::ProgramPlan& plan,
           const AnalyzerConfig& config)
      : program_(program), plan_(plan), config_(config) {
    // Throws std::invalid_argument outside 3..32, as every backend does,
    // before compute_facts() shifts by the width.
    (void)rng::Lfsr::maximal_taps(config.width);
  }

  AnalysisReport run(bool diagnostics_wanted) {
    compute_facts();
    compute_liveness();
    compute_pairs();
    compute_fragility();
    if (diagnostics_wanted) {
      report_.seeds = seed_provenance(program_, plan_, exec_config());
      diagnose_seed_collisions();
      diagnose_pairs();
      diagnose_chains();
      diagnose_dead();
      diagnose_constants();
    }
    return std::move(report_);
  }

  /// The fragility pass alone: it needs no node facts or pair predictions.
  double fragility() {
    compute_fragility();
    return report_.fragility;
  }

 private:
  [[nodiscard]] graph::ExecConfig exec_config() const {
    graph::ExecConfig exec;
    exec.stream_length = config_.stream_length;
    exec.width = config_.width;
    exec.seed = config_.seed;
    exec.sync_depth = config_.sync_depth;
    exec.shuffle_depth = config_.shuffle_depth;
    return exec;
  }

  [[nodiscard]] GeneratorId group_generator(unsigned group) const {
    return effective_generator(
        derive_seed32(config_.seed, group, Role::kGroupTrace), config_.width);
  }

  std::uint32_t intern(const std::string& key) {
    const auto [it, inserted] =
        value_numbers_.emplace(key, static_cast<std::uint32_t>(
                                        value_numbers_.size()));
    (void)inserted;
    return it->second;
  }

  // ------------------------------------------------------------- facts
  void compute_facts() {
    const std::uint64_t natural = std::uint64_t{1} << config_.width;
    report_.facts.resize(program_.node_count());
    // Each op's own generators (private slots, fix aux RNGs) join its
    // randomness cone before its consumers merge it into theirs.
    for (const graph::SeedSite& site : graph::seed_sites(program_, plan_)) {
      if (site.role == Role::kGroupTrace) continue;
      insert_sorted(report_.facts[site.node].provenance,
                    effective_generator(site.seed32(config_.seed),
                                        config_.width, site.rotation));
    }
    for (NodeId id = 0; id < program_.node_count(); ++id) {
      const ProgramNode& node = program_.node(id);
      AnalysisReport::NodeFacts& facts = report_.facts[id];
      if (node.kind != ProgramNode::Kind::kOp) {
        const GeneratorId gen = group_generator(node.rng_group);
        insert_sorted(facts.provenance, gen);
        facts.has_tgen = true;
        facts.tgen = gen;
        facts.tgen_inverted = false;
        facts.constant_only = node.kind == ProgramNode::Kind::kConstant;
        // Streams are threshold encodings [trace < level]; equal effective
        // generator + equal level means the identical stream, whatever the
        // group ids say.
        facts.value_number = intern(
            "s|" + std::to_string(gen.state) + "|" +
            std::to_string(gen.rotation) + "|" +
            std::to_string(unipolar_level64(node.value, natural)));
        continue;
      }

      const OperatorDef& def = program_.def_of(id);
      const std::vector<const PairFix*> fixes = plan_.fixes_for(id);
      bool has_active_fix = false;
      bool fix_rng = false;
      std::string fix_sig;
      for (const PairFix* fix : fixes) {
        if (fix->fix == FixKind::kNone) continue;
        has_active_fix = true;
        if (graph::fix_draws_rng(fix->fix)) fix_rng = true;
        fix_sig += std::to_string(static_cast<int>(fix->fix)) + ":" +
                   std::to_string(fix->operand_a) + ":" +
                   std::to_string(fix->operand_b) + ";";
      }

      facts.constant_only = !node.operands.empty();
      for (const NodeId operand : node.operands) {
        const AnalysisReport::NodeFacts& of = report_.facts[operand];
        for (const GeneratorId& gen : of.provenance) {
          insert_sorted(facts.provenance, gen);
        }
        if (!of.constant_only) facts.constant_only = false;
      }

      // Threshold-generator propagation: monotone gates over threshold
      // encodings of one trace stay threshold encodings of it — but any
      // active fix or private RNG breaks the shape.
      if (!has_active_fix && def.rng_slots == 0 &&
          def.correlation_effect != graph::CorrelationEffect::kDestroying &&
          !node.operands.empty()) {
        bool uniform = true;
        const AnalysisReport::NodeFacts& first =
            report_.facts[node.operands.front()];
        if (!first.has_tgen) uniform = false;
        for (const NodeId operand : node.operands) {
          const AnalysisReport::NodeFacts& of = report_.facts[operand];
          if (!of.has_tgen || !first.has_tgen || of.tgen != first.tgen ||
              of.tgen_inverted != first.tgen_inverted) {
            uniform = false;
            break;
          }
        }
        if (uniform) {
          facts.has_tgen = true;
          facts.tgen = first.tgen;
          facts.tgen_inverted =
              def.correlation_effect == graph::CorrelationEffect::kInverting
                  ? !first.tgen_inverted
                  : first.tgen_inverted;
        }
      }

      // Value number: the CSE criterion — (operator, operand identity,
      // fix shapes, and the seed tag whenever private/fix RNG is drawn).
      std::string key = "o|";
      key += std::to_string(node.op);
      for (const NodeId operand : node.operands) {
        key += '|';
        key += std::to_string(report_.facts[operand].value_number);
      }
      key += "|f:";
      key += fix_sig;
      if (def.rng_slots > 0 || fix_rng) {
        key += "|t:";
        key += std::to_string(node.seed_tag);
      }
      facts.value_number = intern(key);
    }
  }

  void compute_liveness() {
    std::vector<NodeId> stack(program_.outputs().begin(),
                              program_.outputs().end());
    for (const NodeId id : stack) report_.facts[id].live = true;
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      for (const NodeId operand : program_.node(id).operands) {
        if (!report_.facts[operand].live) {
          report_.facts[operand].live = true;
          stack.push_back(operand);
        }
      }
    }
  }

  // ------------------------------------------------------------- pairs
  /// Final slot states of one node's fix list, optionally skipping one
  /// fix (the counterfactual used for redundancy proofs).
  std::vector<SlotAbs> simulate(const ProgramNode& node,
                                const std::vector<const PairFix*>& fixes,
                                const PairFix* skip) const {
    std::vector<SlotAbs> slots(node.operands.size());
    for (std::size_t position = 0; position < fixes.size(); ++position) {
      if (fixes[position] == skip) continue;
      apply_fix_abstract(slots, *fixes[position], position);
    }
    return slots;
  }

  [[nodiscard]] SccClass pair_class(const ProgramNode& node,
                      const std::vector<SlotAbs>& slots, unsigned a,
                      unsigned b) const {
    return slot_pair_class(
        slots[a], slots[b],
        report_.node_class(node.operands[a], node.operands[b]));
  }

  void compute_pairs() {
    // Map plan fixes by (node, pair) for the requirement sweep, keeping
    // plan indices for redundancy reporting.
    std::map<std::tuple<NodeId, unsigned, unsigned>, std::size_t> fix_index;
    for (std::size_t i = 0; i < plan_.fixes.size(); ++i) {
      const PairFix& fix = plan_.fixes[i];
      fix_index[{fix.op_node, fix.operand_a, fix.operand_b}] = i;
    }

    for (const NodeId op_node : program_.op_nodes()) {
      const ProgramNode& node = program_.node(op_node);
      const OperatorDef& def = program_.def_of(op_node);
      const std::vector<const PairFix*> fixes = plan_.fixes_for(op_node);
      const std::vector<SlotAbs> final_slots = simulate(node, fixes, nullptr);

      for (unsigned a = 0; a < node.operands.size(); ++a) {
        for (unsigned b = a + 1; b < node.operands.size(); ++b) {
          const Requirement requirement = def.requirement_between(a, b);
          if (requirement == Requirement::kAgnostic) continue;
          PairPrediction prediction;
          prediction.op_node = op_node;
          prediction.operand_a = a;
          prediction.operand_b = b;
          prediction.requirement = requirement;
          const auto it = fix_index.find({op_node, a, b});
          if (it != fix_index.end()) {
            prediction.fix = plan_.fixes[it->second].fix;
          }
          prediction.operands =
              report_.node_class(node.operands[a], node.operands[b]);
          prediction.at_gate = pair_class(node, final_slots, a, b);
          prediction.satisfied =
              class_satisfies(requirement, prediction.at_gate);
          report_.pairs.push_back(prediction);
        }
      }

      // Counterfactual redundancy: a fix is redundant when removing just
      // it leaves its own pair AND every pair satisfied-with-it still
      // satisfied.  (Chain links survive this test: dropping link (1,2)
      // of a 3-chain un-shuffles slot 2 and breaks pair (0,2).)
      for (const PairFix* candidate : fixes) {
        if (candidate->fix == FixKind::kNone) continue;
        const std::vector<SlotAbs> without =
            simulate(node, fixes, candidate);
        bool redundant = true;
        SccClass own_class = SccClass::kUnknown;
        for (unsigned a = 0; a < node.operands.size() && redundant; ++a) {
          for (unsigned b = a + 1; b < node.operands.size(); ++b) {
            const Requirement requirement = def.requirement_between(a, b);
            if (requirement == Requirement::kAgnostic) continue;
            const SccClass with_class = pair_class(node, final_slots, a, b);
            const SccClass without_class = pair_class(node, without, a, b);
            if (a == candidate->operand_a && b == candidate->operand_b) {
              own_class = without_class;
            }
            if (class_satisfies(requirement, with_class) &&
                !class_satisfies(requirement, without_class)) {
              redundant = false;
              break;
            }
          }
        }
        if (!redundant || !class_satisfies(def.requirement_between(
                                               candidate->operand_a,
                                               candidate->operand_b),
                                           own_class)) {
          continue;
        }
        RedundantFix finding;
        finding.fix_index = static_cast<std::size_t>(
            candidate - plan_.fixes.data());
        finding.op_node = op_node;
        finding.operand_a = candidate->operand_a;
        finding.operand_b = candidate->operand_b;
        finding.without_fix = own_class;
        report_.redundant_fixes.push_back(finding);
      }
    }
  }

  // --------------------------------------------------------- fragility
  void compute_fragility() {
    // Sharers of each representative fix (correction sharing fans one
    // physical circuit to every mirror, so one upset reaches them all).
    std::map<std::size_t, double> sharers;
    for (const PairFix& fix : plan_.fixes) {
      if (fix.shared_with >= 0) {
        sharers[static_cast<std::size_t>(fix.shared_with)] += 1.0;
      }
    }

    // Downstream depth of chain links: link t of an m-link chain poisons
    // its own target slot plus every later link's (shuffles compose).
    std::map<std::size_t, double> chain_blast;
    for (const NodeId op_node : program_.op_nodes()) {
      std::vector<std::size_t> chain;  // plan indices, in plan order
      for (std::size_t i = 0; i < plan_.fixes.size(); ++i) {
        if (plan_.fixes[i].op_node == op_node &&
            plan_.fixes[i].fix == FixKind::kDecorrelatorChain) {
          chain.push_back(i);
        }
      }
      std::map<unsigned, double> depth_from_slot;
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        const PairFix& link = plan_.fixes[*it];
        const auto next = depth_from_slot.find(link.operand_b);
        const double depth =
            1.0 + (next != depth_from_slot.end() ? next->second : 0.0);
        chain_blast[*it] = depth;
        depth_from_slot[link.operand_a] = depth;
      }
    }

    for (std::size_t i = 0; i < plan_.fixes.size(); ++i) {
      const PairFix& fix = plan_.fixes[i];
      if (fix.fix == FixKind::kNone) continue;
      if (fix.shared_with >= 0) continue;  // mirrors share the rep's state
      FixFragility entry;
      entry.fix_index = i;
      entry.op_node = fix.op_node;
      entry.kind = fix.fix;
      const auto horizon = static_cast<double>(config_.stream_length);
      switch (fix.fix) {
        case FixKind::kSynchronizer:
        case FixKind::kDesynchronizer:
          // Small counter, recovers in O(depth) cycles (BENCH_fault: 2-5).
          entry.state_bits = sync_state_bits(config_.sync_depth);
          entry.persistence = 2.0 * config_.sync_depth + 1.0;
          entry.blast = 1.0 + sharers[i];
          break;
        case FixKind::kDecorrelator:
          // Two shuffle buffers; a corrupted buffer bit never flushes.
          entry.state_bits = 2.0 * static_cast<double>(config_.shuffle_depth);
          entry.persistence = horizon;
          entry.blast = 1.0;
          break;
        case FixKind::kDecorrelatorChain:
          entry.state_bits = static_cast<double>(config_.shuffle_depth);
          entry.persistence = horizon;
          entry.blast = chain_blast.count(i) ? chain_blast[i] : 1.0;
          break;
        case FixKind::kRegenerateShared:
        case FixKind::kRegenerateComplementary:
          entry.state_bits = static_cast<double>(config_.width);
          entry.persistence = horizon;
          entry.blast = 1.0;
          break;
        case FixKind::kRegenerateDistinct:
          entry.state_bits = 2.0 * static_cast<double>(config_.width);
          entry.persistence = horizon;
          entry.blast = 1.0;
          break;
        case FixKind::kNone:
          break;
      }
      entry.score = entry.state_bits * entry.blast * entry.persistence;
      report_.fragility += entry.score;
      report_.fix_fragility.push_back(entry);
    }
  }

  // ------------------------------------------------------- diagnostics
  void emit(std::string id, Severity severity, NodeId node,
            std::string message) {
    Diagnostic d;
    d.id = std::move(id);
    d.severity = severity;
    d.node = node;
    if (node != graph::kInvalidNode) d.name = program_.node(node).name;
    d.message = std::move(message);
    report_.diagnostics.push_back(std::move(d));
  }

  void diagnose_seed_collisions() {
    for (const SeedCollision& collision : report_.seeds.collisions) {
      const SeedRecord& a = report_.seeds.records[collision.first];
      const SeedRecord& b = report_.seeds.records[collision.second];
      const bool both_traces = a.role == Role::kGroupTrace &&
                               b.role == Role::kGroupTrace;
      // Identical generators are an error when they make two schedules
      // the planner relies on being distinct literally the same machine:
      // any exact fold collision, and masked aliasing between two group
      // traces (the groups' streams become bit-identical while lineage
      // analysis still calls them independent).
      const Severity severity = collision.exact || both_traces
                                    ? Severity::kError
                                    : Severity::kWarning;
      std::ostringstream message;
      message << (collision.exact ? "derived seeds collide exactly"
                                  : "derived seeds alias after width-" +
                                        std::to_string(config_.width) +
                                        " masking")
              << ": " << a.label << " and " << b.label
              << " run one LFSR schedule (state 0x" << std::hex
              << a.generator.state << std::dec << ")";
      if (both_traces && !collision.exact) {
        message << "; the groups' traces are bit-identical but the planner "
                   "treats them as independent";
      }
      emit("seed-collision", severity, b.node, message.str());
    }
  }

  void diagnose_pairs() {
    std::map<NodeId, bool> recorded;
    for (const NodeId node : plan_.violations) recorded[node] = true;
    for (const PairPrediction& pair : report_.pairs) {
      if (pair.satisfied) continue;
      std::ostringstream message;
      message << "operand pair (" << pair.operand_a << ", " << pair.operand_b
              << ") of " << program_.def_of(pair.op_node).name << " requires "
              << graph::to_string(pair.requirement) << " streams but gets "
              << to_string(pair.at_gate) << " ones";
      if (recorded.count(pair.op_node)) {
        message << " (recorded as a planner violation — no fix inserted "
                   "under this strategy)";
      } else if (pair.fix == FixKind::kNone) {
        message << " (the planner believes this pair is satisfied and "
                   "inserted nothing)";
      } else {
        message << " despite a planned " << graph::to_string(pair.fix);
      }
      emit("requirement-violation", Severity::kError, pair.op_node,
           message.str());
    }

    for (const RedundantFix& finding : report_.redundant_fixes) {
      const PairFix& fix = plan_.fixes[finding.fix_index];
      std::ostringstream message;
      message << graph::to_string(fix.fix) << " on operand pair ("
              << finding.operand_a << ", " << finding.operand_b
              << ") is redundant: without it the pair is already "
              << to_string(finding.without_fix)
              << " and every other pair of the op stays satisfied";
      if (fix.shared_with >= 0) {
        message << " (circuit is shared, so it charges no extra area)";
      }
      emit("redundant-fix", Severity::kWarning, finding.op_node,
           message.str());
    }
  }

  void diagnose_chains() {
    // A chain of m links yields fragility entries with blast m, m-1, ...,
    // 1; one warning per op node for its deepest chain (blast >= 2 means a
    // single upset reaches at least two downstream copies).
    std::map<NodeId, double> per_node;
    for (const FixFragility& entry : report_.fix_fragility) {
      if (entry.kind != FixKind::kDecorrelatorChain) continue;
      if (entry.blast < 2.0) continue;
      per_node[entry.op_node] = std::max(per_node[entry.op_node], entry.blast);
    }
    for (const auto& [node, blast] : per_node) {
      std::ostringstream message;
      message << "decorrelator chain shares upstream shuffle state across "
              << static_cast<std::size_t>(blast)
              << " downstream copies: one upset in the first link poisons "
                 "every later copy and persists to stream end "
                 "(fault::sweep recovery-depth ground truth); consider the "
                 "pairwise form where resilience outranks area";
      emit("chain-reconvergence", Severity::kWarning, node, message.str());
    }
  }

  void diagnose_dead() {
    std::map<unsigned, bool> group_live;
    for (NodeId id = 0; id < program_.node_count(); ++id) {
      const ProgramNode& node = program_.node(id);
      if (node.kind != ProgramNode::Kind::kOp) {
        group_live[node.rng_group] =
            group_live[node.rng_group] || report_.facts[id].live;
      }
      if (report_.facts[id].live) continue;
      emit("dead-value", Severity::kNote, id,
           "value is unreachable from every program output");
      if (node.kind == ProgramNode::Kind::kOp) {
        const OperatorDef& def = program_.def_of(id);
        bool draws = def.rng_slots > 0;
        for (const PairFix* fix : plan_.fixes_for(id)) {
          if (graph::fix_draws_rng(fix->fix)) draws = true;
        }
        if (draws) {
          emit("dead-rng", Severity::kWarning, id,
               "dead op still draws private/fix RNG sequences — generator "
               "hardware charged for a value no output consumes");
        }
      }
    }
    for (const auto& [group, live] : group_live) {
      if (live) continue;
      emit("dead-rng", Severity::kWarning, graph::kInvalidNode,
           "RNG group " + std::to_string(group) +
               "'s trace feeds only dead values");
    }
  }

  void diagnose_constants() {
    // Roots of all-constant subgraphs: a foldable op that is an output or
    // has a non-foldable consumer (flagging every node of the subtree
    // would drown the listing).
    std::vector<bool> has_nonconstant_consumer(program_.node_count(), false);
    std::vector<bool> is_output(program_.node_count(), false);
    for (const NodeId id : program_.outputs()) is_output[id] = true;
    for (NodeId id = 0; id < program_.node_count(); ++id) {
      const ProgramNode& node = program_.node(id);
      if (node.kind != ProgramNode::Kind::kOp) continue;
      if (report_.facts[id].constant_only) continue;
      for (const NodeId operand : node.operands) {
        has_nonconstant_consumer[operand] = true;
      }
    }
    for (const NodeId id : program_.op_nodes()) {
      if (!report_.facts[id].constant_only || !report_.facts[id].live) {
        continue;
      }
      if (!is_output[id] && !has_nonconstant_consumer[id]) continue;
      emit("constant-foldable", Severity::kNote, id,
           "every transitive operand is a constant — the subgraph folds to "
           "a single constant stream (run with ExecConfig::optimize or "
           "opt::optimize)");
    }
  }

  const graph::Program& program_;
  const graph::ProgramPlan& plan_;
  const AnalyzerConfig& config_;
  AnalysisReport report_;
  std::map<std::string, std::uint32_t> value_numbers_;
};

}  // namespace

AnalysisReport analyze(const graph::Program& program,
                       const graph::ProgramPlan& plan,
                       const AnalyzerConfig& config) {
  obs::Telemetry* const telemetry = obs::fallback(config.telemetry);
  obs::Span span(obs::tracer_of(telemetry), "analysis.analyze", "analysis");
  AnalysisReport report = Analyzer(program, plan, config).run(true);
  append_accuracy_diagnostics(report, program, plan, config);
  span.arg("nodes", static_cast<std::uint64_t>(program.node_count()));
  span.arg("pairs", static_cast<std::uint64_t>(report.pairs.size()));
  span.arg("diagnostics",
           static_cast<std::uint64_t>(report.diagnostics.size()));
  span.arg("errors", static_cast<std::uint64_t>(report.count(
                         Severity::kError)));
  if (telemetry != nullptr) {
    obs::MetricsRegistry& metrics = telemetry->metrics();
    metrics.counter("analysis.runs").inc();
    metrics.counter("analysis.pairs_checked").add(report.pairs.size());
    metrics.counter("analysis.diagnostics").add(report.diagnostics.size());
    metrics.counter("analysis.errors").add(report.count(Severity::kError));
    metrics.counter("analysis.warnings")
        .add(report.count(Severity::kWarning));
    metrics.counter("analysis.seed_collisions")
        .add(report.seeds.collisions.size());
    metrics.counter("analysis.redundant_fixes")
        .add(report.redundant_fixes.size());
  }
  return report;
}

double plan_fragility(const graph::Program& program,
                      const graph::ProgramPlan& plan,
                      const AnalyzerConfig& config) {
  return Analyzer(program, plan, config).fragility();
}

AnalysisReport analyze_facts(const graph::Program& program,
                             const graph::ProgramPlan& plan,
                             const AnalyzerConfig& config) {
  return Analyzer(program, plan, config).run(false);
}

}  // namespace sc::analysis
