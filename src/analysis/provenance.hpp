/// \file provenance.hpp
/// Static RNG/seed provenance for planned programs.
///
/// Every random decision a backend makes derives from seeds.hpp's
/// (node, role, lane) scheme, and graph::seed_sites() lists every
/// generator a run constructs — the list the executor builds its fix
/// generators from.  This module makes that list *inspectable*: each site
/// becomes a SeedRecord carrying its origin (which node, which role, which
/// lane) and — the part no runtime audit sees — its **effective generator
/// identity**.
///
/// rng::Lfsr keeps only the low `width` bits of its seed (remapping a
/// masked zero to 1) and its output sequence is fully determined by that
/// masked state plus the output rotation.  So two derived seeds that are
/// distinct as 32-bit folds can still seed *the same generator*: with the
/// default width 8 there are only 255 reachable schedules per rotation.
/// When that happens to two input-group traces, the groups are not merely
/// correlated — they are bit-identical, and the planner's lineage analysis
/// (which reasons about group *ids*, not generator *states*) silently
/// treats them as independent.  seed_provenance() surfaces both collision
/// classes statically:
///
///   * exact collisions — identical 32-bit folds (derivation-scheme bug or
///     birthday collision; backend_test's regression test guards the
///     default seed, this reports any seed),
///   * masked collisions — distinct folds, same effective generator
///     (pigeonhole in the masked space; unavoidable in general, but a
///     correctness hazard the correlation analysis must model).
///
/// The analyzer (analyzer.hpp) consumes effective generator ids as the
/// atoms of its independence reasoning: two streams are independent only
/// when their *generator* sets are disjoint, not merely their group ids.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "graph/seeds.hpp"

namespace sc::analysis {

/// Identity of an LFSR output schedule: the width-masked (and 0 -> 1
/// remapped) register state the generator actually starts from, plus the
/// output rotation.  Two sources with equal GeneratorId emit identical
/// sequences; equal state under different rotations emit bit-rotations of
/// one another (distinct address schedules, still structurally related).
struct GeneratorId {
  std::uint32_t state = 1;
  unsigned rotation = 0;

  bool operator==(const GeneratorId& other) const {
    return state == other.state && rotation == other.rotation;
  }
  bool operator!=(const GeneratorId& other) const { return !(*this == other); }
  bool operator<(const GeneratorId& other) const {
    return state != other.state ? state < other.state
                                : rotation < other.rotation;
  }
};

/// The effective generator a consumer of `seed32` runs: rng::Lfsr keeps
/// the low `width` bits and remaps a masked zero to 1.
GeneratorId effective_generator(std::uint32_t seed32, unsigned width,
                                unsigned rotation = 0);

/// One derived seed with its full origin story.
struct SeedRecord {
  std::uint32_t seed32 = 0;       ///< the fold the LFSR is seeded with
  GeneratorId generator;          ///< effective identity (masked + rotation)
  graph::seeds::Role role = graph::seeds::Role::kGroupTrace;
  /// Role-dependent key: the RNG group id for kGroupTrace, the op node's
  /// seed_tag for kOpPrivate / kFixAux*.
  std::uint32_t key = 0;
  std::uint32_t lane = 0;         ///< slot index / fix operand-pair lane
  /// Program node the seed belongs to: the op node for private slots and
  /// fix RNGs, the first node of the group for traces.
  graph::NodeId node = graph::kInvalidNode;
  std::string label;              ///< human-readable origin
};

/// A pair of records (indices into SeedReport::records) that alias.
struct SeedCollision {
  std::size_t first = 0;
  std::size_t second = 0;
  bool exact = false;  ///< identical 32-bit folds (else masked-space only)
};

/// Every derived seed of one (program, plan, config), in backend
/// enumeration order, plus all pairwise collisions.
struct SeedReport {
  std::vector<SeedRecord> records;
  std::vector<SeedCollision> collisions;

  /// Records whose effective generator equals `id`.
  [[nodiscard]] std::vector<const SeedRecord*> sharing(const GeneratorId& id) const;
};

/// One record per graph::seed_sites() entry of the run, in that order —
/// the generators the backends construct — and the exact + masked
/// collisions among them.
SeedReport seed_provenance(const graph::Program& program,
                           const graph::ProgramPlan& plan,
                           const graph::ExecConfig& config);

/// Collision detection on a bare record list (for synthetic corpora).
std::vector<SeedCollision> find_collisions(
    const std::vector<SeedRecord>& records);

}  // namespace sc::analysis
