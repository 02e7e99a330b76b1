/// \file registry.hpp
/// The operator registry: one definition per SC operation, consumed
/// uniformly by the builder, planner, executor backends, and cost model.
///
/// The paper's circuits exist to be "inserted at appropriate points in the
/// computation" (§I) — which requires the computation layer to be open.
/// An OperatorDef bundles everything the system needs to know about one
/// operation:
///   * name and arity (operators may take any number of operands),
///   * the correlation Requirement between each operand pair (paper
///     Fig. 2's "Operand Correlation" row, generalized to n-ary ops),
///   * exact floating-point semantics for error measurement,
///   * a factory for the bit-serial gate/FSM implementation (OpEvaluator),
///     optionally with a word-parallel kernel path,
///   * the operator's standard-cell contribution for the hw cost model.
/// Registering a definition is all it takes for the planner to insert
/// manipulating circuits in front of it and for every ExecutorBackend to
/// run it — no switch statement anywhere knows the operator set.
///
/// The built-in registry covers the Fig. 2 set (multiply, scaled add,
/// saturating add, subtract, max, min, divide), the CA toggle adder,
/// bipolar arithmetic, the Brown–Card FSM functions (stanh, sexp), a
/// Bernstein/ReSC polynomial unit, and the §IV image-pipeline stages
/// (3x3 Gaussian-blur MUX tree, Roberts cross) as composite operators.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "common/span.hpp"
#include "graph/error_transfer.hpp"
#include "graph/seeds.hpp"
#include "hw/netlist.hpp"
#include "rng/random_source.hpp"

namespace sc::graph {

using NodeId = std::uint32_t;

/// Index of an operator inside a registry.
using OpId = std::uint32_t;

/// Operand-correlation requirement of an operand pair (paper Fig. 2).
enum class Requirement {
  kUncorrelated,
  kPositive,
  kNegative,
  kAgnostic,
};

std::string to_string(Requirement requirement);

/// How an operator's output stream relates, correlation-wise, to its
/// operand streams — the per-operator transfer function of the static
/// correlation dataflow analysis (src/analysis/).  The classification is
/// about *provability*, not hardware cost:
///
///  * kPreserving — a monotone combinational gate (AND/OR trees).  Fed
///    threshold encodings of one RNG trace (uniform comparison direction),
///    the output is again a threshold encoding of that trace, so SCC = +1
///    against every same-trace peer is preserved exactly.
///  * kInverting — complements its operand (NOT): a threshold encoding
///    comes out as the complementary encoding, flipping the SCC sign
///    against same-trace peers.
///  * kDestroying — everything else (XOR/XNOR non-monotone gates, FSMs,
///    MUX trees and any evaluator drawing private RNG): the output's
///    correlation against other streams is not statically provable and
///    the analysis must widen to "unknown".
///
/// Declaring kPreserving/kInverting for an operator whose gate is not
/// actually monotone/complementing makes the analyzer unsound — the
/// property test (analysis_property_test) checks declared effects against
/// measured SCC on random programs.
enum class CorrelationEffect {
  kDestroying,
  kPreserving,
  kInverting,
};

std::string to_string(CorrelationEffect effect);

/// Largest operator arity a registry accepts (the serial evaluator path
/// gathers one bit per operand into a fixed stack buffer).
inline constexpr unsigned kMaxArity = 16;

/// Per-run, per-node execution context handed to evaluator factories.
/// Provides the deterministic operator-private RNGs (seeds.hpp roles), so
/// an operator draws identical sequences in every backend.
struct OpContext {
  std::size_t stream_length = 0;
  unsigned width = 8;              ///< RNG/SNG width in bits
  NodeId node = 0;                 ///< node id (keys the private seeds)
  std::uint64_t base_seed = 0;

  /// Operator-private LFSR for `slot` (distinct slots, distinct seeds).
  [[nodiscard]] rng::RandomSourcePtr make_rng(unsigned slot) const;
  /// Natural comparator range 2^width (64-bit: width 32 must not wrap).
  [[nodiscard]] std::uint64_t natural() const {
    return std::uint64_t{1} << width;
  }
};

/// Stateful per-node evaluator of one operator over one run.
///
/// The bit-serial step() is the reference semantics; process() is the
/// word/chunk path and MUST be bit-identical (the default implementation
/// just loops step(), so only override it with a provably equivalent
/// word-parallel form).  State carries across process() calls, so backends
/// may drive an evaluator chunk-at-a-time: begin() is called once with the
/// total stream length, then chunks arrive in order.
class OpEvaluator {
 public:
  virtual ~OpEvaluator() = default;

  /// Announces the total stream length before the first bit/chunk.
  virtual void begin(std::size_t /*total_length*/) {}

  /// Consumes one bit per operand, emits the cycle's output bit.
  virtual bool step(const bool* operand_bits) = 0;

  /// Advances one chunk: `ins` holds one pointer per operand to an
  /// equal-length chunk (pointers, so backends can pass unmodified
  /// producer buffers without copying), `out` is preallocated to the same
  /// length, and every bit of it is written (its prior contents are
  /// undefined).  Default loops step(); backends drive the reference
  /// semantics with a non-virtual `OpEvaluator::process` call.
  virtual void process(sc::span<const Bitstream* const> ins, Bitstream& out);
};

/// Everything the system knows about one operator.
struct OperatorDef {
  std::string name;
  unsigned arity = 2;

  /// Uniform requirement between every operand pair.
  Requirement requirement = Requirement::kAgnostic;
  /// Optional per-pair override (operand indices i < j); when set it takes
  /// precedence over `requirement` (e.g. Roberts cross needs SCC = +1
  /// between its diagonal pairs only).
  std::function<Requirement(unsigned i, unsigned j)> pair_requirement;

  /// Exact floating-point semantics over operand stream values.
  std::function<double(sc::span<const double>)> exact;

  /// Factory for the per-run evaluator (bit-serial, optionally with a
  /// word-parallel process() override).
  std::function<std::unique_ptr<OpEvaluator>(const OpContext&)> make_evaluator;

  /// Transfer function of the static correlation analysis (see
  /// CorrelationEffect).  The conservative default — kDestroying — is
  /// always sound; only declare kPreserving/kInverting for operators whose
  /// bit-level implementation provably warrants it.  Ignored by the
  /// analyzer (treated as kDestroying) whenever rng_slots > 0.
  CorrelationEffect correlation_effect = CorrelationEffect::kDestroying;

  /// Number of operator-private RNG slots the evaluator draws via
  /// OpContext::make_rng (0 for pure gates).  Lets seed audits enumerate
  /// every generator of a run (backend.hpp's seed_sites).
  unsigned rng_slots = 0;

  /// Transfer function of the static *accuracy* analysis
  /// (error_transfer.hpp; consumed by analysis::plan_accuracy): how the
  /// operator propagates value intervals, deterministic bias, and
  /// stochastic variance bounds, including its sensitivity to residual
  /// operand correlation.  Optional: operators without one fall back to
  /// the trivial-but-sound envelope max(exact, 1 - exact), so the
  /// analysis stays conservative rather than wrong.  Every builtin
  /// registers one (the error_transfers:: factories).
  ErrorTransfer error_transfer;

  /// Standard-cell contribution of one instance (RNG-fed operators charge
  /// their private generators here).  May be empty (zero cells).
  std::function<hw::Netlist(unsigned width)> netlist;

  /// Requirement between operand pair (i, j), i < j.
  [[nodiscard]] Requirement requirement_between(unsigned i, unsigned j) const {
    return pair_requirement ? pair_requirement(i, j) : requirement;
  }
};

/// Name-indexed collection of operator definitions.
///
/// Lookups are by name (builder-facing) or OpId (the dense index programs
/// store).  Registration is append-only; mutating a registry while
/// programs built against it execute is the caller's race to avoid.
class OperatorRegistry {
 public:
  /// Registers a definition.  Throws std::invalid_argument on a duplicate
  /// name, empty name, arity outside [1, kMaxArity], or missing exact /
  /// make_evaluator functions.
  OpId add(OperatorDef def);

  const OperatorDef& def(OpId id) const { return defs_[id]; }
  [[nodiscard]] std::size_t size() const { return defs_.size(); }

  /// Definition by name, nullptr when absent.
  const OperatorDef* find(const std::string& name) const;
  /// Id by name; throws std::invalid_argument when absent.
  [[nodiscard]] OpId id_of(const std::string& name) const;

  [[nodiscard]] std::vector<std::string> names() const;

  /// Fresh registry pre-populated with the built-in operator set.
  static OperatorRegistry with_builtins();

 private:
  std::vector<OperatorDef> defs_;
};

/// Process-wide default registry (built-ins registered on first use).
/// Custom operators may be added at startup; tests that register
/// throwaway operators should use OperatorRegistry::with_builtins().
OperatorRegistry& registry();

/// Registers a Bernstein/ReSC polynomial operator approximating `f` with
/// the given degree into `target`: arity = degree mutually-uncorrelated
/// copies of x, coefficient streams generated internally from private
/// RNGs (they are constants in real designs).  Returns the new OpId.
OpId register_bernstein(OperatorRegistry& target, std::string name,
                        const std::function<double(double)>& f,
                        std::size_t degree);

}  // namespace sc::graph
