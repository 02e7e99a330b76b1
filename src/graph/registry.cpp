#include "graph/registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "arith/add.hpp"
#include "arith/divide.hpp"
#include "bitstream/encoding.hpp"
#include "func/bernstein.hpp"
#include "func/fsm_function.hpp"
#include "hw/designs.hpp"
#include "kernel/pair_table.hpp"
#include "rng/lfsr.hpp"

namespace sc::graph {

std::string to_string(CorrelationEffect effect) {
  switch (effect) {
    case CorrelationEffect::kDestroying:
      return "destroying";
    case CorrelationEffect::kPreserving:
      return "preserving";
    case CorrelationEffect::kInverting:
      return "inverting";
  }
  return "?";
}

std::string to_string(Requirement requirement) {
  switch (requirement) {
    case Requirement::kUncorrelated:
      return "uncorrelated";
    case Requirement::kPositive:
      return "positive";
    case Requirement::kNegative:
      return "negative";
    case Requirement::kAgnostic:
      return "agnostic";
  }
  return "?";
}

rng::RandomSourcePtr OpContext::make_rng(unsigned slot) const {
  return std::make_unique<rng::Lfsr>(
      width, seeds::derive_seed32(base_seed, node, seeds::Role::kOpPrivate,
                                  slot));
}

void OpEvaluator::process(sc::span<const Bitstream* const> ins,
                          Bitstream& out) {
  bool bits[kMaxArity];
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < ins.size(); ++k) bits[k] = ins[k]->get(i);
    out.set(i, step(bits));
  }
}

namespace {

using Word = Bitstream::Word;

/// Cycles per block of the RNG-fed word paths: the select and coefficient
/// draws of one block live in stack buffers.
constexpr std::size_t kBlockBits = 4096;
constexpr std::size_t kBlockWords = kBlockBits / 64;

/// Word path of the half-weight MUX evaluators: per block, draws the
/// select stream with one fill_compare (bit i = next_i < level, exactly
/// step()'s compare) and writes out word i = pick(i, select word i).
template <typename PickFn>
void mux_words(rng::RandomSource& source, std::uint64_t level, Bitstream& out,
               PickFn&& pick) {
  Word* w = out.word_data();
  Word sel[kBlockWords];
  for (std::size_t pos = 0; pos < out.size(); pos += kBlockBits) {
    const std::size_t n = std::min(kBlockBits, out.size() - pos);
    const std::size_t words = (n + 63) / 64;
    std::fill_n(sel, words, Word{0});
    source.fill_compare(sel, n, level);
    for (std::size_t k = 0; k < words; ++k) {
      w[pos / 64 + k] = pick(pos / 64 + k, sel[k]);
    }
  }
}

/// Word path of the table-driven FSM evaluators: operands 0 and 1 (operand
/// 0 twice for unary units) through kernel::run_pair_table, the X output
/// lane into `out`.  Returns the successor state.
unsigned run_fsm_words(const kernel::PairNibbleTable& table, unsigned state,
                       sc::span<const Bitstream* const> ins, Bitstream& out) {
  return kernel::run_pair_table(table, state, ins[0]->words().data(),
                                ins[ins.size() - 1]->words().data(),
                                out.word_data(), nullptr, out.size());
}

using TablePtr = std::shared_ptr<const kernel::PairNibbleTable>;

/// Nibble table of a one-flip-flop cell (arith::Cordiv,
/// arith::ToggleAdder), from the cell's pure transition.
template <typename Cell>
TablePtr flip_flop_table() {
  return std::make_shared<const kernel::PairNibbleTable>(
      kernel::PairNibbleTable::build(2, [](unsigned s, bool x, bool y) {
        const auto [next, out] = Cell::transition(s != 0, x, y);
        return kernel::PairStep{next ? 1u : 0u, out, false};
      }));
}

/// Nibble table of a saturating-counter function unit (func::Stanh,
/// func::Sexp), from the counter's pure transition and the unit's output
/// rule.  The units are unary, so the Y lanes carry nothing.
template <typename Unit>
TablePtr counter_table(const Unit& unit) {
  const unsigned states = unit.counter().states();
  return std::make_shared<const kernel::PairNibbleTable>(
      kernel::PairNibbleTable::build(states, [&](unsigned s, bool x, bool) {
        const unsigned next = func::SaturatingCounter::transition(states, s, x);
        return kernel::PairStep{next, unit.output(next), false};
      }));
}

// ------------------------------------------------------------ evaluators

/// Stateless two-input gates, with the word-parallel Bitstream operators
/// as the kernel path (bit-identical: both are the same boolean function).
class GateEvaluator final : public OpEvaluator {
 public:
  enum class Gate { kAnd, kOr, kXor, kXnor };
  explicit GateEvaluator(Gate gate) : gate_(gate) {}

  bool step(const bool* in) override {
    switch (gate_) {
      case Gate::kAnd:
        return in[0] && in[1];
      case Gate::kOr:
        return in[0] || in[1];
      case Gate::kXor:
        return in[0] != in[1];
      case Gate::kXnor:
        return in[0] == in[1];
    }
    return false;
  }

  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    // Word loop into the caller's preallocated buffer: the engine backend
    // calls this once per chunk, so no per-call allocation.
    const std::vector<Bitstream::Word>& x = ins[0]->words();
    const std::vector<Bitstream::Word>& y = ins[1]->words();
    Bitstream::Word* w = out.word_data();
    switch (gate_) {
      case Gate::kAnd:
        for (std::size_t i = 0; i < x.size(); ++i) w[i] = x[i] & y[i];
        break;
      case Gate::kOr:
        for (std::size_t i = 0; i < x.size(); ++i) w[i] = x[i] | y[i];
        break;
      case Gate::kXor:
        for (std::size_t i = 0; i < x.size(); ++i) w[i] = x[i] ^ y[i];
        break;
      case Gate::kXnor:
        for (std::size_t i = 0; i < x.size(); ++i) w[i] = ~(x[i] ^ y[i]);
        mask_tail(out);  // XNOR of clear tails is 1s; restore the invariant
        break;
    }
  }

 private:
  static void mask_tail(Bitstream& out) {
    const unsigned rem = out.size() % 64;
    if (rem != 0 && out.word_count() > 0) {
      out.word_data()[out.word_count() - 1] &=
          (Bitstream::Word{1} << rem) - 1;
    }
  }

 private:
  Gate gate_;
};

/// Bipolar negation (NOT), arity 1.
class NotEvaluator final : public OpEvaluator {
 public:
  bool step(const bool* in) override { return !in[0]; }
  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    const std::vector<Bitstream::Word>& x = ins[0]->words();
    Bitstream::Word* w = out.word_data();
    for (std::size_t i = 0; i < x.size(); ++i) w[i] = ~x[i];
    const unsigned rem = out.size() % 64;
    if (rem != 0 && out.word_count() > 0) {
      w[out.word_count() - 1] &= (Bitstream::Word{1} << rem) - 1;
    }
  }
};

/// MUX scaled add/subtract: out = sel ? Y : X with a private half-weight
/// select stream (optionally inverting the Y leg for bipolar subtract).
class MuxEvaluator final : public OpEvaluator {
 public:
  MuxEvaluator(const OpContext& ctx, bool invert_y)
      : source_(ctx.make_rng(0)), half_(ctx.natural() / 2),
        invert_y_(invert_y) {}

  bool step(const bool* in) override {
    const bool sel = source_->next() < half_;
    const bool y = invert_y_ ? !in[1] : in[1];
    return sel ? y : in[0];
  }

  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    const Word* x = ins[0]->words().data();
    const Word* y = ins[1]->words().data();
    const Word flip = invert_y_ ? ~Word{0} : Word{0};
    mux_words(*source_, half_, out, [&](std::size_t i, Word sel) {
      return (x[i] & ~sel) | ((y[i] ^ flip) & sel);
    });
  }

 private:
  rng::RandomSourcePtr source_;
  std::uint64_t half_;
  bool invert_y_;
};

/// Two-operand cell with one flip-flop of state: the CORDIV divider (paper
/// Fig. 2e) and the deterministic CA toggle adder (paper ref [9] class).
/// Bit-serial by definition; the word path walks the cell's nibble table
/// and leaves the flip-flop where step() would have.
template <typename Cell>
class FlipFlopEvaluator final : public OpEvaluator {
 public:
  explicit FlipFlopEvaluator(TablePtr table) : table_(std::move(table)) {}

  bool step(const bool* in) override { return cell_.step(in[0], in[1]); }

  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    cell_.set_state(run_fsm_words(*table_, cell_.state() ? 1u : 0u, ins,
                                  out) != 0);
  }

 private:
  TablePtr table_;
  Cell cell_;
};

using CordivEvaluator = FlipFlopEvaluator<arith::Cordiv>;
using ToggleAddEvaluator = FlipFlopEvaluator<arith::ToggleAdder>;

/// Brown–Card saturating-counter FSM functions (stanh / sexp); the word
/// path walks the unit's nibble table and leaves the counter where step()
/// would have.
template <typename Unit>
class CounterFnEvaluator final : public OpEvaluator {
 public:
  CounterFnEvaluator(const Unit& unit, TablePtr table)
      : table_(std::move(table)), unit_(unit) {}

  bool step(const bool* in) override { return unit_.step(in[0]); }

  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    func::SaturatingCounter& counter = unit_.counter();
    counter.set_state(run_fsm_words(*table_, counter.state(), ins, out));
  }

 private:
  TablePtr table_;
  Unit unit_;
};

using StanhEvaluator = CounterFnEvaluator<func::Stanh>;
using SexpEvaluator = CounterFnEvaluator<func::Sexp>;

/// ReSC/Bernstein unit: per cycle, the popcount of the n operand bits (the
/// copies of x) selects one of n+1 coefficient streams, each generated by
/// a private comparator SNG.  All coefficient SNGs advance every cycle,
/// exactly like the free-running hardware streams they model.
class BernsteinEvaluator final : public OpEvaluator {
 public:
  BernsteinEvaluator(const OpContext& ctx,
                     const std::vector<double>& coefficients) {
    sources_.reserve(coefficients.size());
    levels_.reserve(coefficients.size());
    for (std::size_t i = 0; i < coefficients.size(); ++i) {
      sources_.push_back(ctx.make_rng(static_cast<unsigned>(i)));
      levels_.push_back(unipolar_level64(coefficients[i], ctx.natural()));
    }
  }

  bool step(const bool* in) override {
    std::size_t count = 0;
    const std::size_t copies = sources_.size() - 1;
    for (std::size_t k = 0; k < copies; ++k) count += in[k] ? 1 : 0;
    bool out = false;
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      const bool bit = sources_[i]->next() < levels_[i];
      if (i == count) out = bit;
    }
    return out;
  }

  /// Per block: a bit-sliced count of the copy operands, then one
  /// fill_compare per coefficient stream, kept where the count selects it.
  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    static_assert(kMaxArity <= 16, "copy counts must fit four bit planes");
    const std::size_t copies = sources_.size() - 1;
    Word* w = out.word_data();
    Word count[4][kBlockWords];
    Word coef[kBlockWords];
    for (std::size_t pos = 0; pos < out.size(); pos += kBlockBits) {
      const std::size_t n = std::min(kBlockBits, out.size() - pos);
      const std::size_t words = (n + 63) / 64;
      const std::size_t base = pos / 64;
      // Plane b holds bit b of every cycle's count: a ripple-carry add of
      // each operand word.
      for (Word* plane : count) std::fill_n(plane, words, Word{0});
      for (std::size_t k = 0; k < copies; ++k) {
        const Word* in = ins[k]->words().data() + base;
        for (std::size_t i = 0; i < words; ++i) {
          Word carry = in[i];
          for (Word* plane : count) {
            const Word next = plane[i] & carry;
            plane[i] ^= carry;
            carry = next;
          }
        }
      }
      std::fill_n(w + base, words, Word{0});
      for (std::size_t j = 0; j <= copies; ++j) {
        std::fill_n(coef, words, Word{0});
        sources_[j]->fill_compare(coef, n, levels_[j]);
        for (std::size_t i = 0; i < words; ++i) {
          Word picked = coef[i];
          for (unsigned b = 0; b < 4; ++b) {
            picked &= ((j >> b) & 1u) != 0 ? count[b][i] : ~count[b][i];
          }
          w[base + i] |= picked;
        }
      }
    }
  }

 private:
  std::vector<rng::RandomSourcePtr> sources_;
  std::vector<std::uint64_t> levels_;
};

/// 3x3 Gaussian-blur MUX tree (§IV pipeline stage): a private select RNG
/// picks one window pixel per cycle with binomial weights {1,2,1;2,4,2;
/// 1,2,1}/16.  Operands are the window in row-major order.
class GaussianBlurEvaluator final : public OpEvaluator {
 public:
  explicit GaussianBlurEvaluator(const OpContext& ctx)
      : source_(ctx.make_rng(0)) {}

  bool step(const bool* in) override {
    // Low 4 select bits address the 16-slot weight expansion.
    const std::uint32_t r = source_->next() & 15u;
    return in[arith::kBlurSelect[r]];
  }

  /// Per block: the nine pick masks of the block's select draws, then
  /// OR over k of (operand k AND mask k).
  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    Word* w = out.word_data();
    std::uint32_t r[kBlockBits];
    Word masks[9 * kBlockWords];
    for (std::size_t pos = 0; pos < out.size(); pos += kBlockBits) {
      const std::size_t n = std::min(kBlockBits, out.size() - pos);
      const std::size_t words = (n + 63) / 64;
      const std::size_t base = pos / 64;
      source_->fill(r, n);
      arith::blur_select_masks(r, n, masks, kBlockWords);
      std::fill_n(w + base, words, Word{0});
      for (std::size_t k = 0; k < ins.size(); ++k) {
        const Word* in = ins[k]->words().data() + base;
        const Word* mask = masks + k * kBlockWords;
        for (std::size_t i = 0; i < words; ++i) w[base + i] |= in[i] & mask[i];
      }
    }
  }

  static constexpr double kWeights[9] = {1, 2, 1, 2, 4, 2, 1, 2, 1};

 private:
  rng::RandomSourcePtr source_;
};

constexpr double GaussianBlurEvaluator::kWeights[9];

/// Roberts-cross edge magnitude (§IV pipeline stage): XOR the two window
/// diagonals, scale-add the gradients with a private MUX select.  Operands
/// are the 2x2 window [p00, p01, p10, p11]; the XORs need SCC = +1 between
/// each diagonal pair — the mismatch that motivates the paper.
class RobertsCrossEvaluator final : public OpEvaluator {
 public:
  explicit RobertsCrossEvaluator(const OpContext& ctx)
      : source_(ctx.make_rng(0)), half_(ctx.natural() / 2) {}

  bool step(const bool* in) override {
    const bool g1 = in[0] != in[3];
    const bool g2 = in[1] != in[2];
    return (source_->next() < half_) ? g2 : g1;
  }

  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    const Word* p00 = ins[0]->words().data();
    const Word* p01 = ins[1]->words().data();
    const Word* p10 = ins[2]->words().data();
    const Word* p11 = ins[3]->words().data();
    mux_words(*source_, half_, out, [&](std::size_t i, Word sel) {
      return ((p00[i] ^ p11[i]) & ~sel) | ((p01[i] ^ p10[i]) & sel);
    });
  }

 private:
  rng::RandomSourcePtr source_;
  std::uint64_t half_;
};

// ------------------------------------------------------------- exact fns

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

// --------------------------------------------------------------- builtins

template <typename Fn>
OperatorDef binary_op(std::string name, Requirement requirement, Fn exact,
                      GateEvaluator::Gate gate,
                      std::function<hw::Netlist(unsigned)> netlist,
                      ErrorTransfer error_transfer) {
  OperatorDef def;
  def.name = std::move(name);
  def.arity = 2;
  def.requirement = requirement;
  def.exact = [exact](sc::span<const double> v) { return exact(v[0], v[1]); };
  def.make_evaluator = [gate](const OpContext&) {
    return std::make_unique<GateEvaluator>(gate);
  };
  def.error_transfer = std::move(error_transfer);
  // AND/OR are monotone: thresholds in, threshold out (min/max of the
  // comparison levels), so the analyzer may propagate same-trace claims
  // through them.  XOR/XNOR are not monotone — destroying.
  def.correlation_effect = (gate == GateEvaluator::Gate::kAnd ||
                            gate == GateEvaluator::Gate::kOr)
                               ? CorrelationEffect::kPreserving
                               : CorrelationEffect::kDestroying;
  def.netlist = std::move(netlist);
  return def;
}

void register_builtins(OperatorRegistry& reg) {
  using Gate = GateEvaluator::Gate;

  // --- the Fig. 2 set -----------------------------------------------------
  reg.add(binary_op(
      "multiply", Requirement::kUncorrelated,
      [](double a, double b) { return a * b; }, Gate::kAnd,
      [](unsigned) { return hw::and_gate_netlist(); },
      error_transfers::nary_and()));

  {
    OperatorDef def;
    def.name = "scaled-add";
    def.arity = 2;
    def.requirement = Requirement::kAgnostic;
    def.exact = [](sc::span<const double> v) { return 0.5 * (v[0] + v[1]); };
    def.make_evaluator = [](const OpContext& ctx) {
      return std::make_unique<MuxEvaluator>(ctx, /*invert_y=*/false);
    };
    def.rng_slots = 1;
    def.netlist = [](unsigned width) {
      return hw::mux_adder_netlist() + hw::lfsr_netlist(width);
    };
    def.error_transfer = error_transfers::mux_scaled_add(/*invert_y=*/false);
    reg.add(std::move(def));
  }

  reg.add(binary_op(
      "saturating-add", Requirement::kNegative,
      [](double a, double b) { return std::min(1.0, a + b); }, Gate::kOr,
      [](unsigned) { return hw::or_gate_netlist(); },
      error_transfers::or_saturating_add()));

  reg.add(binary_op(
      "subtract", Requirement::kPositive,
      [](double a, double b) { return std::abs(a - b); }, Gate::kXor,
      [](unsigned) { return hw::xor_gate_netlist(); },
      error_transfers::xor_subtract()));

  reg.add(binary_op(
      "max", Requirement::kPositive,
      [](double a, double b) { return std::max(a, b); }, Gate::kOr,
      [](unsigned) { return hw::or_gate_netlist(); },
      error_transfers::or_max()));

  reg.add(binary_op(
      "min", Requirement::kPositive,
      [](double a, double b) { return std::min(a, b); }, Gate::kAnd,
      [](unsigned) { return hw::and_gate_netlist(); },
      error_transfers::and_min()));

  {
    // CORDIV divide (Fig. 2e): quotient for positively correlated operands
    // with pX <= pY; with pY = 0 the DFF never samples and emits 0s.
    OperatorDef def;
    def.name = "divide";
    def.arity = 2;
    def.requirement = Requirement::kPositive;
    def.exact = [](sc::span<const double> v) {
      return v[1] > 0.0 ? std::min(1.0, v[0] / v[1]) : 0.0;
    };
    def.make_evaluator = [table = flip_flop_table<arith::Cordiv>()](
                             const OpContext&) {
      return std::make_unique<CordivEvaluator>(table);
    };
    def.netlist = [](unsigned) { return hw::cordiv_netlist(); };
    def.error_transfer = error_transfers::cordiv_divide();
    reg.add(std::move(def));
  }

  // --- correlation-agnostic and bipolar arithmetic ------------------------
  {
    OperatorDef def;
    def.name = "toggle-add";
    def.arity = 2;
    def.requirement = Requirement::kAgnostic;
    def.exact = [](sc::span<const double> v) { return 0.5 * (v[0] + v[1]); };
    def.make_evaluator = [table = flip_flop_table<arith::ToggleAdder>()](
                             const OpContext&) {
      return std::make_unique<ToggleAddEvaluator>(table);
    };
    def.netlist = [](unsigned) { return hw::toggle_adder_netlist(); };
    def.error_transfer = error_transfers::toggle_add();
    reg.add(std::move(def));
  }

  reg.add(binary_op(
      "multiply-bipolar", Requirement::kUncorrelated,
      [](double a, double b) {
        return clamp01(0.5 * ((2 * a - 1) * (2 * b - 1) + 1));
      },
      Gate::kXnor, [](unsigned) { return hw::xnor_gate_netlist(); },
      error_transfers::xnor_multiply_bipolar()));

  {
    OperatorDef def;
    def.name = "negate-bipolar";
    def.arity = 1;
    def.correlation_effect = CorrelationEffect::kInverting;
    def.exact = [](sc::span<const double> v) { return 1.0 - v[0]; };
    def.make_evaluator = [](const OpContext&) {
      return std::make_unique<NotEvaluator>();
    };
    def.netlist = [](unsigned) {
      return hw::Netlist("negate-bipolar").add(hw::Cell::kInv);
    };
    def.error_transfer = error_transfers::not_negate();
    reg.add(std::move(def));
  }

  {
    OperatorDef def;
    def.name = "scaled-sub-bipolar";
    def.arity = 2;
    def.requirement = Requirement::kAgnostic;
    // vZ = 0.5 (vX - vY)  <=>  pZ = (pX - pY + 1) / 2.
    def.exact = [](sc::span<const double> v) {
      return clamp01(0.5 * (v[0] - v[1] + 1.0));
    };
    def.make_evaluator = [](const OpContext& ctx) {
      return std::make_unique<MuxEvaluator>(ctx, /*invert_y=*/true);
    };
    def.rng_slots = 1;
    def.netlist = [](unsigned width) {
      return hw::mux_adder_netlist() + hw::lfsr_netlist(width) +
             hw::Netlist().add(hw::Cell::kInv);
    };
    def.error_transfer = error_transfers::mux_scaled_add(/*invert_y=*/true);
    reg.add(std::move(def));
  }

  // --- FSM function units (Brown & Card; outside the Fig. 2 set) ----------
  {
    static constexpr unsigned kStates = 8;
    OperatorDef def;
    def.name = "stanh-8";
    def.arity = 1;
    def.exact = [](sc::span<const double> v) {
      return clamp01(0.5 * (func::stanh_value(2 * v[0] - 1, kStates) + 1));
    };
    const func::Stanh unit(kStates);
    def.make_evaluator = [unit, table = counter_table(unit)](const OpContext&) {
      return std::make_unique<StanhEvaluator>(unit, table);
    };
    def.netlist = [](unsigned) { return hw::fsm_unit_netlist(kStates); };
    def.error_transfer =
        error_transfers::fsm_lipschitz(/*lipschitz=*/kStates / 2.0, kStates);
    reg.add(std::move(def));
  }

  {
    static constexpr unsigned kStates = 8;
    static constexpr unsigned kG = 1;
    OperatorDef def;
    def.name = "sexp-8-1";
    def.arity = 1;
    def.exact = [](sc::span<const double> v) {
      return clamp01(func::sexp_value(2 * v[0] - 1, kStates, kG));
    };
    const func::Sexp unit(kStates, kG);
    def.make_evaluator = [unit, table = counter_table(unit)](const OpContext&) {
      return std::make_unique<SexpEvaluator>(unit, table);
    };
    def.netlist = [](unsigned) { return hw::fsm_unit_netlist(kStates); };
    def.error_transfer =
        error_transfers::fsm_lipschitz(/*lipschitz=*/kStates / 2.0, kStates);
    reg.add(std::move(def));
  }

  // --- Bernstein/ReSC polynomial unit (Qian & Riedel) ---------------------
  register_bernstein(reg, "bernstein-x2-3",
                     [](double t) { return t * t; }, /*degree=*/3);

  // --- §IV image-pipeline stages as composite operators -------------------
  {
    OperatorDef def;
    def.name = "gaussian-blur-3x3";
    def.arity = 9;
    def.requirement = Requirement::kAgnostic;
    def.exact = [](sc::span<const double> v) {
      double sum = 0.0;
      for (std::size_t i = 0; i < 9; ++i) {
        sum += GaussianBlurEvaluator::kWeights[i] * v[i];
      }
      return sum / 16.0;
    };
    def.make_evaluator = [](const OpContext& ctx) {
      if (ctx.width < 4) {
        throw std::invalid_argument(
            "gaussian-blur-3x3 needs width >= 4 (16-slot select decode)");
      }
      return std::make_unique<GaussianBlurEvaluator>(ctx);
    };
    def.rng_slots = 1;
    def.netlist = [](unsigned width) { return hw::mux_tree_netlist(9, width); };
    def.error_transfer = error_transfers::weighted_mux(
        {1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0});
    reg.add(std::move(def));
  }

  {
    OperatorDef def;
    def.name = "roberts-cross";
    def.arity = 4;
    def.requirement = Requirement::kAgnostic;
    def.pair_requirement = [](unsigned i, unsigned j) {
      const bool diagonal = (i == 0 && j == 3) || (i == 1 && j == 2);
      return diagonal ? Requirement::kPositive : Requirement::kAgnostic;
    };
    def.exact = [](sc::span<const double> v) {
      return 0.5 * (std::abs(v[0] - v[3]) + std::abs(v[1] - v[2]));
    };
    def.make_evaluator = [](const OpContext& ctx) {
      return std::make_unique<RobertsCrossEvaluator>(ctx);
    };
    def.rng_slots = 1;
    def.netlist = [](unsigned width) {
      return hw::roberts_cross_netlist() + hw::lfsr_netlist(width);
    };
    def.error_transfer = error_transfers::roberts_cross();
    reg.add(std::move(def));
  }
}

}  // namespace

OpId OperatorRegistry::add(OperatorDef def) {
  if (def.name.empty()) {
    throw std::invalid_argument("OperatorRegistry::add: empty name");
  }
  if (def.arity < 1 || def.arity > kMaxArity) {
    throw std::invalid_argument("OperatorRegistry::add: arity of '" +
                                def.name + "' outside [1, " +
                                std::to_string(kMaxArity) + "]");
  }
  if (!def.exact || !def.make_evaluator) {
    throw std::invalid_argument("OperatorRegistry::add: '" + def.name +
                                "' needs exact and make_evaluator");
  }
  if (find(def.name) != nullptr) {
    throw std::invalid_argument("OperatorRegistry::add: duplicate operator '" +
                                def.name + "'");
  }
  defs_.push_back(std::move(def));
  return static_cast<OpId>(defs_.size() - 1);
}

const OperatorDef* OperatorRegistry::find(const std::string& name) const {
  for (const OperatorDef& def : defs_) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

OpId OperatorRegistry::id_of(const std::string& name) const {
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name == name) return static_cast<OpId>(i);
  }
  throw std::invalid_argument("OperatorRegistry: unknown operator '" + name +
                              "'");
}

std::vector<std::string> OperatorRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(defs_.size());
  for (const OperatorDef& def : defs_) out.push_back(def.name);
  return out;
}

OperatorRegistry OperatorRegistry::with_builtins() {
  OperatorRegistry reg;
  register_builtins(reg);
  return reg;
}

OperatorRegistry& registry() {
  static OperatorRegistry instance = OperatorRegistry::with_builtins();
  return instance;
}

OpId register_bernstein(OperatorRegistry& target, std::string name,
                        const std::function<double(double)>& f,
                        std::size_t degree) {
  if (degree < 1 || degree + 1 > kMaxArity) {
    throw std::invalid_argument("register_bernstein: degree outside range");
  }
  const std::vector<double> coefficients =
      func::bernstein_coefficients(f, degree);
  OperatorDef def;
  def.name = std::move(name);
  def.arity = static_cast<unsigned>(degree);
  // The architecture requires n mutually uncorrelated copies of x — the
  // canonical consumer of the paper's decorrelator (func/bernstein.hpp).
  def.requirement = Requirement::kUncorrelated;
  def.exact = [coefficients](sc::span<const double> v) {
    return func::resc_expected(
        sc::span<const double>(coefficients.data(), coefficients.size()), v);
  };
  def.make_evaluator = [coefficients](const OpContext& ctx) {
    return std::make_unique<BernsteinEvaluator>(ctx, coefficients);
  };
  def.rng_slots = static_cast<unsigned>(degree + 1);
  def.netlist = [degree](unsigned width) {
    return hw::resc_netlist(degree, width);
  };
  def.error_transfer =
      error_transfers::bernstein(static_cast<unsigned>(degree));
  return target.add(std::move(def));
}

}  // namespace sc::graph
