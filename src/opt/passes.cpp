/// \file passes.cpp
/// The six optimizer passes (see pass.hpp for the contract).

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "analysis/analyzer.hpp"
#include "opt/pass.hpp"

namespace sc::opt {

using graph::FixKind;
using graph::GraphBuilder;
using graph::NodeId;
using graph::OpId;
using graph::PairFix;
using graph::Program;
using graph::ProgramNode;
using graph::ProgramPlan;
using graph::Requirement;
using graph::Value;

namespace {

/// Maps every node reachable from the outputs through operand edges to
/// itself and every other node to graph::kInvalidNode: the `target` of a
/// rebuild that drops dead nodes.  Nodes flagged in `stop` (optional) are
/// treated as leaves: kept but not traversed through — the fold pass uses
/// it to orphan the operands of ops it is about to replace with constants.
std::vector<NodeId> live_nodes(const Program& program,
                               const std::vector<bool>* stop = nullptr) {
  std::vector<NodeId> live(program.node_count(), graph::kInvalidNode);
  std::vector<NodeId> stack(program.outputs().begin(),
                            program.outputs().end());
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (live[id] == id) continue;
    live[id] = id;
    if (stop != nullptr && (*stop)[id]) continue;
    for (NodeId operand : program.node(id).operands) stack.push_back(operand);
  }
  return live;
}

/// Rebuilds `program` through `target`: node id is kept where
/// target[id] == id, dropped where target[id] is graph::kInvalidNode, and
/// otherwise merged into the kept node target[id] < id, whose stream its
/// consumers then read.  Dropped and merged nodes count in
/// report.nodes_removed.  `edit`, when given, may replace a kept node
/// before its operands are remapped.
ProgramRewrite rebuild(
    const Program& program, const std::vector<NodeId>& target,
    PassReport& report,
    const std::function<void(NodeId, ProgramNode&)>& edit = nullptr) {
  const std::size_t n = program.node_count();
  GraphBuilder builder(program.reg());
  std::vector<NodeId> remap(n, graph::kInvalidNode);
  for (NodeId id = 0; id < n; ++id) {
    if (target[id] != id) {
      ++report.nodes_removed;
      if (target[id] != graph::kInvalidNode) remap[id] = remap[target[id]];
      continue;
    }
    ProgramNode node = program.node(id);
    if (edit) edit(id, node);
    for (NodeId& operand : node.operands) operand = remap[operand];
    remap[id] = builder.raw_node(std::move(node)).id;
  }
  for (NodeId out : program.outputs()) builder.output(Value{remap[out]});
  return {builder.build(), std::move(remap)};
}

}  // namespace

// -------------------------------------------------------- constant folding

/// Ops whose operands are all constants become constants of their exact
/// value (on a fresh private RNG group — a reseeding rewrite).  Operand
/// constants orphaned by the fold are dropped in the same rewrite, so the
/// saved comparator/LFSR cells are visible to this pass's own cost gate.
std::optional<Rewrite> fold_constants(const Program& program,
                                      const ProgramPlan& /*plan*/,
                                      const OptConfig& /*config*/,
                                      PassReport& report) {
  const std::size_t n = program.node_count();
  std::vector<bool> constant(n, false);
  std::vector<bool> fold(n, false);
  bool any = false;
  for (NodeId id = 0; id < n; ++id) {
    const ProgramNode& node = program.node(id);
    if (node.kind == ProgramNode::Kind::kConstant) {
      constant[id] = true;
      continue;
    }
    if (node.kind != ProgramNode::Kind::kOp) continue;
    bool all_const = !node.operands.empty();
    for (NodeId operand : node.operands) all_const &= constant[operand];
    if (all_const) {
      fold[id] = constant[id] = true;
      any = true;
    }
  }
  if (!any) return std::nullopt;

  // Fresh RNG groups / seed tags for the new constants, above every id
  // the program already uses.
  unsigned next_group = graph::kConstantGroupBase;
  std::uint32_t next_tag = 0;
  for (NodeId id = 0; id < n; ++id) {
    const ProgramNode& node = program.node(id);
    next_tag = std::max(next_tag, node.seed_tag + 1);
    if (node.kind != ProgramNode::Kind::kOp) {
      next_group = std::max(next_group, node.rng_group + 1);
    }
  }

  const std::vector<double> values = program.exact_values();
  // Liveness after folding: folded ops no longer reference their
  // operands, so orphaned constants vanish with them.
  return rebuild(program, live_nodes(program, &fold), report,
                 [&](NodeId id, ProgramNode& node) {
                   if (!fold[id]) return;
                   ProgramNode folded;
                   folded.kind = ProgramNode::Kind::kConstant;
                   folded.name = node.name;
                   folded.value = std::clamp(values[id], 0.0, 1.0);
                   folded.rng_group = next_group++;
                   folded.seed_tag = next_tag++;
                   node = std::move(folded);
                   ++report.nodes_folded;
                 });
}

// ------------------------------------------------- common subexpressions

/// Merges op nodes whose operator, operand identity, and RNG-slot seeds
/// agree.  Operators with private RNG slots draw from seeds keyed by
/// their seed_tag, and so do the planned fixes in front of an op
/// (decorrelator / chain / regeneration aux RNGs) — in either case
/// distinct duplicates produce *different* streams, so the CSE key keeps
/// them apart and only truly deterministic nodes merge.  That is exactly
/// what makes the rewrite bit-identical: a deterministic evaluator on
/// identical (unfixed or RNG-free-fixed) operand streams emits identical
/// bits, so consumers of the dropped duplicate see the same stream.
std::optional<Rewrite> merge_common_subexpressions(const Program& program,
                                                   const ProgramPlan& plan,
                                                   const OptConfig& /*config*/,
                                                   PassReport& report) {
  using Key = std::tuple<OpId, std::uint32_t, std::vector<NodeId>>;
  const std::size_t n = program.node_count();
  // Ops whose planned fixes draw RNG (seeded per node): their output is
  // not a function of (op, operands) alone.
  std::vector<bool> rng_fixed(n, false);
  for (const PairFix& fix : plan.fixes) {
    if (graph::fix_draws_rng(fix.fix)) rng_fixed[fix.op_node] = true;
  }
  // Each op maps to the first op with its key, operands read through
  // the same map; the program is rebuilt only when something repeats.
  std::vector<NodeId> first(n);
  std::map<Key, NodeId> seen;
  bool repeated = false;
  for (NodeId id = 0; id < n; ++id) {
    first[id] = id;
    const ProgramNode& node = program.node(id);
    if (node.kind != ProgramNode::Kind::kOp) continue;
    std::vector<NodeId> operands = node.operands;
    for (NodeId& operand : operands) operand = first[operand];
    const bool draws_rng = program.def_of(id).rng_slots > 0 || rng_fixed[id];
    const auto [it, inserted] = seen.emplace(
        Key{node.op, draws_rng ? node.seed_tag : 0, std::move(operands)}, id);
    if (!inserted) {
      first[id] = it->second;
      repeated = true;
    }
  }
  if (!repeated) return std::nullopt;
  return rebuild(program, first, report);
}

// ------------------------------------------------- dead value elimination

/// Drops nodes that reach no program output (bit-identical: surviving
/// nodes keep their operands, rng groups, and seed tags).
std::optional<Rewrite> drop_dead_values(const Program& program,
                                        const ProgramPlan& /*plan*/,
                                        const OptConfig& /*config*/,
                                        PassReport& report) {
  const std::vector<NodeId> live = live_nodes(program);
  if (std::find(live.begin(), live.end(), graph::kInvalidNode) == live.end()) {
    return std::nullopt;
  }
  return rebuild(program, live, report);
}

// ---------------------------------------------------- chain decorrelators

/// Rewrites the planner's pairwise decorrelator insertions over a k-way
/// same-node copy group (k(k-1)/2 two-buffer circuits) into the paper's
/// series chain (§III-C) of k-1 single-buffer links over consecutive
/// slots: copy j becomes the composition of j independent shuffles of
/// copy 0, so shuffle windows compound along the chain and every pair —
/// inside the group and against any other operand — reaches SCC ~ 0.
/// Only groups whose slots reference one *node* are chained (a link
/// replaces its second stream with a shuffle of the first, which
/// preserves the value only when the streams are identical); same-group
/// inputs with different values keep the pairwise insertions.  The
/// dropped PairFix entries stay in the plan with fix = kNone so
/// plan_covers can check the chain rule.  Reseeding rewrite (chain lanes
/// draw fresh per-lane aux seeds).
std::optional<Rewrite> chain_decorrelators(const Program& program,
                                           const ProgramPlan& plan,
                                           const OptConfig& /*config*/,
                                           PassReport& report) {
  std::map<NodeId, std::vector<std::size_t>> by_op;
  for (std::size_t i = 0; i < plan.fixes.size(); ++i) {
    by_op[plan.fixes[i].op_node].push_back(i);
  }
  // The proposal, copied from the plan when the first group is chained.
  std::optional<ProgramPlan> out;
  std::vector<PairFix> chain_fixes;
  std::size_t groups = 0;
  for (const auto& [op_node, indices] : by_op) {
    const ProgramNode& node = program.node(op_node);

    // Slots already claimed by non-decorrelator fixes must not be
    // re-shuffled (a chain after a synchronizer would destroy the
    // alignment it just built).
    std::set<unsigned> off_limits;
    for (std::size_t i : indices) {
      const PairFix& fix = plan.fixes[i];
      if (fix.fix == FixKind::kNone || fix.fix == FixKind::kDecorrelator) {
        continue;
      }
      off_limits.insert(fix.operand_a);
      off_limits.insert(fix.operand_b);
    }

    // Copy groups: slots that reference the same node carry one and the
    // same stream, so a chain link's shuffle(previous copy) preserves
    // their value exactly.
    std::map<NodeId, std::vector<unsigned>> sources;
    for (unsigned slot = 0; slot < node.operands.size(); ++slot) {
      if (off_limits.count(slot) != 0) continue;
      sources[node.operands[slot]].push_back(slot);
    }

    std::set<unsigned> chained;
    for (const auto& [source, slots] : sources) {
      (void)source;
      // 2-copy groups keep the planner's Fig. 4a pair decorrelator on
      // purpose: it shuffles *both* streams (relative window ~2D),
      // while a lone chain link shuffles only one (~D) — swapping
      // would trade decorrelation quality for area, which the
      // area-only gate cannot see.  Chains only win at k >= 3, where
      // links compose.
      if (slots.size() < 3) continue;
      // Every intra-group pair must currently be a planned pairwise
      // decorrelator with the kUncorrelated requirement.
      std::vector<std::size_t> pair_indices;
      bool eligible = true;
      for (std::size_t a = 0; a < slots.size() && eligible; ++a) {
        for (std::size_t b = a + 1; b < slots.size() && eligible; ++b) {
          bool found = false;
          for (std::size_t i : indices) {
            const PairFix& fix = plan.fixes[i];
            if (fix.operand_a == slots[a] && fix.operand_b == slots[b] &&
                fix.fix == FixKind::kDecorrelator && fix.shared_with < 0 &&
                fix.requirement == Requirement::kUncorrelated) {
              pair_indices.push_back(i);
              found = true;
              break;
            }
          }
          eligible &= found;
        }
      }
      if (!eligible) continue;

      if (!out) out = plan;
      for (std::size_t i : pair_indices) out->fixes[i].fix = FixKind::kNone;
      for (std::size_t t = 0; t + 1 < slots.size(); ++t) {
        PairFix link;
        link.op_node = op_node;
        link.operand_a = slots[t];
        link.operand_b = slots[t + 1];
        link.requirement = Requirement::kUncorrelated;
        link.relation = graph::Relation::kPositive;
        link.fix = FixKind::kDecorrelatorChain;
        chain_fixes.push_back(link);
      }
      // Every slot but the chain head is re-shuffled.
      chained.insert(slots.begin() + 1, slots.end());
      report.corrections_saved += pair_indices.size() - (slots.size() - 1);
      ++groups;
    }

    // Cross-group decorrelators touching a chained (already re-shuffled)
    // slot are redundant: that slot is independent of everything.
    if (!chained.empty()) {
      for (std::size_t i : indices) {
        PairFix& fix = out.value().fixes[i];
        if (fix.fix != FixKind::kDecorrelator || fix.shared_with >= 0) {
          continue;
        }
        if (chained.count(fix.operand_a) != 0 ||
            chained.count(fix.operand_b) != 0) {
          fix.fix = FixKind::kNone;
          ++report.corrections_saved;
        }
      }
    }
  }
  if (!out) return std::nullopt;
  out->fixes.insert(out->fixes.end(), chain_fixes.begin(), chain_fixes.end());
  std::ostringstream detail;
  detail << groups << " copy group" << (groups == 1 ? "" : "s") << " chained";
  report.detail = detail.str();
  return std::move(*out);
}

// ------------------------------------------------------ correction sharing

/// Marks duplicate RNG-free synchronizer / desynchronizer insertions that
/// read the same producer pair as shared (PairFix::shared_with): one
/// physical circuit fans out to every sibling consumer, so the plan
/// charges it once.  Only fixes whose slots no other fix of the same op
/// touches are candidates — their inputs are provably the raw producer
/// streams — and the mirrored FSM is deterministic, so backends stay
/// bit-identical without any change.
std::optional<Rewrite> share_corrections(const Program& program,
                                         const ProgramPlan& plan,
                                         const OptConfig& /*config*/,
                                         PassReport& report) {
  // Per-op slot usage over all active fixes.
  std::map<NodeId, std::map<unsigned, unsigned>> usage;
  for (const PairFix& fix : plan.fixes) {
    if (fix.fix == FixKind::kNone) continue;
    ++usage[fix.op_node][fix.operand_a];
    ++usage[fix.op_node][fix.operand_b];
  }
  std::map<std::tuple<NodeId, NodeId, int>, std::size_t> representative;
  // The proposal, copied from the plan at the first shared fix.
  std::optional<ProgramPlan> out;
  std::size_t shared = 0;
  for (std::size_t i = 0; i < plan.fixes.size(); ++i) {
    const PairFix& fix = plan.fixes[i];
    if ((fix.fix != FixKind::kSynchronizer &&
         fix.fix != FixKind::kDesynchronizer) ||
        fix.shared_with >= 0) {
      continue;
    }
    const std::map<unsigned, unsigned>& slots = usage[fix.op_node];
    if (slots.at(fix.operand_a) != 1 || slots.at(fix.operand_b) != 1) {
      continue;  // another fix rewrites these streams first
    }
    const ProgramNode& node = program.node(fix.op_node);
    const std::tuple<NodeId, NodeId, int> key{node.operands[fix.operand_a],
                                              node.operands[fix.operand_b],
                                              static_cast<int>(fix.fix)};
    const auto it = representative.find(key);
    if (it == representative.end()) {
      representative.emplace(key, i);
      continue;
    }
    if (!out) out = plan;
    out->fixes[i].shared_with = static_cast<std::int32_t>(it->second);
    ++shared;
  }
  if (!out) return std::nullopt;
  report.corrections_saved = shared;
  std::ostringstream detail;
  detail << shared << " correction" << (shared == 1 ? "" : "s")
         << " fanned out from siblings";
  report.detail = detail.str();
  return std::move(*out);
}

// ----------------------------------------------------- dead-fix elimination

/// Drops inserted fixes the static analyzer proves redundant.  The
/// analyzer's redundancy verdicts are counterfactual against the *full*
/// incoming plan, so drops are applied greedily and each one is re-checked
/// against the fixes still active: a kUncorrelated pair may lose its fix
/// only while another decorrelator of the op keeps shuffling one of its
/// slots (exactly plan_covers's chain rule) or the raw pair is provably
/// independent; a kPositive pair only when the raw pair is provably
/// SCC = +1 (threshold-generator proof) — the relation is then refined to
/// record the proof.  Sharing representatives and their mirrors are left
/// alone (the mirrored FSM is the representative's circuit), and
/// kNegative pairs are never touched.  Dropped entries stay in
/// plan.fixes with FixKind::kNone, like the planner's satisfied pairs,
/// so fix indices (shared_with) stay stable.
std::optional<Rewrite> drop_dead_fixes(const Program& program,
                                       const ProgramPlan& plan,
                                       const OptConfig& config,
                                       PassReport& report) {
  analysis::AnalyzerConfig analyzer_config;
  analyzer_config.width = config.width;
  analyzer_config.sync_depth = config.planner.sync_depth;
  analyzer_config.shuffle_depth = config.planner.shuffle_depth;
  analyzer_config.telemetry = config.telemetry;
  const analysis::AnalysisReport verdicts =
      analysis::analyze(program, plan, analyzer_config);

  std::set<std::size_t> representatives;
  for (const PairFix& fix : plan.fixes) {
    if (fix.shared_with >= 0) {
      representatives.insert(static_cast<std::size_t>(fix.shared_with));
    }
  }
  // The proposal, copied from the plan at the first drop; later checks
  // read it, so each drop sees the ones before it.
  std::optional<ProgramPlan> out;
  const auto fixes = [&]() -> const std::vector<PairFix>& {
    return out ? out->fixes : plan.fixes;
  };
  const auto shuffled_elsewhere = [&fixes](std::size_t self, NodeId op,
                                           unsigned a, unsigned b) {
    const std::vector<PairFix>& all = fixes();
    for (std::size_t j = 0; j < all.size(); ++j) {
      if (j == self) continue;
      const PairFix& other = all[j];
      if (other.op_node != op) continue;
      if (other.fix == FixKind::kDecorrelator &&
          (other.operand_a == a || other.operand_b == a ||
           other.operand_a == b || other.operand_b == b)) {
        return true;
      }
      if (other.fix == FixKind::kDecorrelatorChain &&
          (other.operand_b == a || other.operand_b == b)) {
        return true;
      }
    }
    return false;
  };
  const auto drop = [&](std::size_t i, graph::Relation relation) {
    if (!out) out = plan;
    out->fixes[i].fix = FixKind::kNone;
    out->fixes[i].relation = relation;
    ++report.corrections_saved;
  };

  for (const analysis::RedundantFix& redundant : verdicts.redundant_fixes) {
    const PairFix& fix = fixes()[redundant.fix_index];
    if (fix.fix == FixKind::kNone || fix.shared_with >= 0 ||
        representatives.count(redundant.fix_index) != 0) {
      continue;
    }
    const ProgramNode& node = program.node(fix.op_node);
    const analysis::SccClass raw = verdicts.node_class(
        node.operands[fix.operand_a], node.operands[fix.operand_b]);
    if (fix.requirement == Requirement::kUncorrelated &&
        redundant.without_fix == analysis::SccClass::kIndependent) {
      if (raw == analysis::SccClass::kIndependent) {
        drop(redundant.fix_index, graph::Relation::kIndependent);
      } else if (shuffled_elsewhere(redundant.fix_index, fix.op_node,
                                    fix.operand_a, fix.operand_b)) {
        // Chain-covered; the relation stays honest.
        drop(redundant.fix_index, fix.relation);
      }
    } else if (fix.requirement == Requirement::kPositive &&
               redundant.without_fix == analysis::SccClass::kCorrelated &&
               raw == analysis::SccClass::kCorrelated &&
               !shuffled_elsewhere(redundant.fix_index, fix.op_node,
                                   fix.operand_a, fix.operand_b)) {
      drop(redundant.fix_index, graph::Relation::kPositive);
    }
  }
  if (!out) return std::nullopt;
  const std::size_t dropped = report.corrections_saved;
  std::ostringstream detail;
  detail << dropped << " provably redundant fix" << (dropped == 1 ? "" : "es")
         << " dropped";
  report.detail = detail.str();
  return std::move(*out);
}

}  // namespace sc::opt
