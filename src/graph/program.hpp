/// \file program.hpp
/// Registry-backed SC programs and the fluent builder that makes them.
///
/// A Program is a DAG whose op nodes reference OperatorDefs by OpId, so
/// *any* registered operator — built-in or user-defined — participates in
/// exact evaluation, correlation planning (planner.hpp), hardware costing,
/// and execution on every backend (backend.hpp).  Programs support named
/// values, n-ary operators, constants (each with a private RNG group),
/// multiple outputs, and subgraph composition (append).
///
/// Typical use:
///   GraphBuilder b;
///   auto x = b.input("x", 0.8, /*rng_group=*/0);
///   auto y = b.input("y", 0.6, 0);               // shares x's RNG
///   auto e = b.op("subtract", {b.op("multiply", {x, y}), b.constant(0.3)});
///   b.output(e, "edge");
///   Program p = b.build();

#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/registry.hpp"
#include "hw/netlist.hpp"

namespace sc::graph {

/// Sentinel for "no such node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// One program node.
struct ProgramNode {
  enum class Kind { kInput, kConstant, kOp };
  Kind kind = Kind::kInput;
  std::string name;

  // Input / constant fields.
  double value = 0.0;      ///< unipolar stream value in [0, 1]
  unsigned rng_group = 0;  ///< inputs sharing a group share one RNG trace

  // Op fields.
  OpId op = 0;
  std::vector<NodeId> operands;

  /// Key the backends derive this node's private seeds from (operator RNG
  /// slots, per-fix aux RNGs).  Builders assign it equal to the node id;
  /// optimizer rewrites (src/opt/) preserve the tag when nodes move, so a
  /// pass that only deduplicates or removes nodes leaves every surviving
  /// node's random draws — and therefore its stream — bit-identical.
  /// kAutoSeedTag means "assign my node id on push".
  std::uint32_t seed_tag = kAutoSeedTag;

  static constexpr std::uint32_t kAutoSeedTag = 0xFFFFFFFFu;
};

/// An immutable registry-backed DAG (build one with GraphBuilder).
class Program {
 public:
  const ProgramNode& node(NodeId id) const { return nodes_[id]; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  const std::vector<NodeId>& outputs() const { return outputs_; }

  /// Ids of all op nodes in creation (topological) order.
  [[nodiscard]] std::vector<NodeId> op_nodes() const;

  /// Node id of a named value, kInvalidNode when absent.
  [[nodiscard]] NodeId find(const std::string& name) const;

  /// Exact floating-point value of a node via the registry's semantics.
  [[nodiscard]] double exact_value(NodeId id) const;
  /// Exact values of all nodes in one topological pass.
  [[nodiscard]] std::vector<double> exact_values() const;

  /// The registry this program's OpIds index into.
  const OperatorRegistry& reg() const { return *registry_; }
  const OperatorDef& def_of(NodeId op_node) const {
    return registry_->def(nodes_[op_node].op);
  }

  /// Standard-cell netlist of the computation itself (operator cells plus
  /// the input SNG bank: one LFSR per RNG group, one comparator per
  /// input/constant).  Correlation-fix overhead is accounted separately by
  /// the planner (ProgramPlan::overhead); base + overhead prices the full
  /// design.
  [[nodiscard]] hw::Netlist base_netlist(unsigned width) const;

 private:
  friend class GraphBuilder;
  const OperatorRegistry* registry_ = nullptr;
  std::vector<ProgramNode> nodes_;
  std::vector<NodeId> outputs_;
};

/// Lightweight value handle returned by builder calls.
struct Value {
  NodeId id = kInvalidNode;
};

/// Fluent program builder.  All methods validate eagerly and throw
/// std::invalid_argument on misuse (unknown operator, arity mismatch,
/// operand from a different builder, duplicate value name).
class GraphBuilder {
 public:
  /// Builds against the process-wide registry() by default; pass a custom
  /// registry to use locally registered operators.  The registry must
  /// outlive the builder and every Program built from it.
  explicit GraphBuilder(const OperatorRegistry& reg = registry());

  /// Adds a generated input.  Inputs sharing `rng_group` are encoded from
  /// one RNG trace (SCC = +1 between them).
  Value input(std::string name, double value, unsigned rng_group);

  /// Adds a constant stream.  Each constant gets a private RNG group, so
  /// it is provably independent of every other value.
  Value constant(double value, std::string name = "");

  /// Adds an n-ary operation by registry name or id.
  Value op(const std::string& op_name, const std::vector<Value>& operands);
  Value op(OpId id, const std::vector<Value>& operands);

  /// Optimizer rebuild path: appends a fully-specified node verbatim — no
  /// name uniquification, rng-group assignment, or seed-tag reset.  Operand
  /// ids must reference earlier nodes of this builder; a kAutoSeedTag tag
  /// is still replaced by the node's id.  Used by opt:: passes to rebuild
  /// programs while preserving every surviving node's RNG identity.
  Value raw_node(ProgramNode node);

  /// Marks a value as a program output, optionally renaming it.  Throws
  /// if `name` already names a different value.
  GraphBuilder& output(Value v, std::string name = "");

  /// Splices `sub`'s nodes into this builder, binding sub's inputs (in
  /// creation order) to `arguments`; constants and ops are copied, names
  /// uniquified on collision.  Returns sub's outputs remapped into this
  /// builder — subgraph composition for reusable blocks.  `sub`'s
  /// operators are re-resolved *by name* in this builder's registry.
  std::vector<Value> append(const Program& sub,
                            const std::vector<Value>& arguments);

  [[nodiscard]] std::size_t node_count() const { return program_.nodes_.size(); }

  /// True when a value name is already in use (input() would throw).
  [[nodiscard]] bool find_name_taken(const std::string& name) const {
    return names_.count(name) != 0;
  }

  /// Finalizes the program (the builder is left empty).
  Program build();

 private:
  NodeId push(ProgramNode node);
  std::string unique_name(std::string name);

  Program program_;
  unsigned next_constant_group_;
  /// Name -> node index, so name validation/uniquification is O(1) per
  /// added node instead of a linear Program::find scan.
  std::unordered_map<std::string, NodeId> names_;
};

/// First RNG group id auto-assigned to constants (user inputs should use
/// groups below this).
inline constexpr unsigned kConstantGroupBase = 0x40000000u;

}  // namespace sc::graph
