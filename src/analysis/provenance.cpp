#include "analysis/provenance.hpp"

#include <map>
#include <string>
#include <utility>

namespace sc::analysis {

using graph::seeds::Role;

GeneratorId effective_generator(std::uint32_t seed32, unsigned width,
                                unsigned rotation) {
  const std::uint32_t mask =
      width >= 32 ? 0xFFFFFFFFu : ((std::uint32_t{1} << width) - 1u);
  std::uint32_t state = seed32 & mask;
  if (state == 0) state = 1;
  return GeneratorId{state, rotation};
}

std::vector<const SeedRecord*> SeedReport::sharing(
    const GeneratorId& id) const {
  std::vector<const SeedRecord*> out;
  for (const SeedRecord& record : records) {
    if (record.generator == id) out.push_back(&record);
  }
  return out;
}

std::vector<SeedCollision> find_collisions(
    const std::vector<SeedRecord>& records) {
  // Group by effective generator: exact collisions are a subset of masked
  // ones (equal folds imply equal masked states at equal rotation), and
  // rotation differences keep schedules distinct, so grouping by
  // GeneratorId finds every aliasing pair in O(n log n).
  std::vector<SeedCollision> out;
  std::map<GeneratorId, std::vector<std::size_t>> by_generator;
  for (std::size_t i = 0; i < records.size(); ++i) {
    by_generator[records[i].generator].push_back(i);
  }
  for (const auto& [generator, members] : by_generator) {
    (void)generator;
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        SeedCollision collision;
        collision.first = members[i];
        collision.second = members[j];
        collision.exact =
            records[members[i]].seed32 == records[members[j]].seed32;
        out.push_back(collision);
      }
    }
  }
  return out;
}

SeedReport seed_provenance(const graph::Program& program,
                           const graph::ProgramPlan& plan,
                           const graph::ExecConfig& config) {
  SeedReport report;
  for (const graph::SeedSite& site : graph::seed_sites(program, plan)) {
    SeedRecord record;
    record.seed32 = site.seed32(config.seed);
    record.generator =
        effective_generator(record.seed32, config.width, site.rotation);
    record.role = site.role;
    record.key = site.key;
    record.lane = site.lane;
    record.node = site.node;
    const graph::ProgramNode& node = program.node(site.node);
    if (site.role == Role::kGroupTrace) {
      record.label = "trace of RNG group " + std::to_string(site.key);
    } else if (site.fix == nullptr) {
      record.label = program.def_of(site.node).name + " '" + node.name +
                     "' private slot " + std::to_string(site.lane);
    } else {
      record.label = to_string(site.fix->fix) + " '" + node.name +
                     "' pair (" + std::to_string(site.fix->operand_a) + ", " +
                     std::to_string(site.fix->operand_b) + ") aux";
      if (graph::fix_seed_sites(*site.fix, site.key).size() > 1) {
        record.label += site.role == Role::kFixAuxA ? " A" : " B";
      }
    }
    report.records.push_back(std::move(record));
  }
  report.collisions = find_collisions(report.records);
  return report;
}

}  // namespace sc::analysis
