#include "graph/program.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "hw/designs.hpp"

namespace sc::graph {

std::vector<NodeId> Program::op_nodes() const {
  std::vector<NodeId> ops;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].kind == ProgramNode::Kind::kOp) ops.push_back(id);
  }
  return ops;
}

NodeId Program::find(const std::string& name) const {
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].name == name) return id;
  }
  return kInvalidNode;
}

std::vector<double> Program::exact_values() const {
  std::vector<double> values(nodes_.size(), 0.0);
  std::vector<double> operand_values;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const ProgramNode& n = nodes_[id];
    if (n.kind != ProgramNode::Kind::kOp) {
      values[id] = n.value;
      continue;
    }
    operand_values.clear();
    for (NodeId operand : n.operands) operand_values.push_back(values[operand]);
    values[id] = registry_->def(n.op).exact(
        sc::span<const double>(operand_values.data(), operand_values.size()));
  }
  return values;
}

double Program::exact_value(NodeId id) const { return exact_values()[id]; }

hw::Netlist Program::base_netlist(unsigned width) const {
  hw::Netlist n("program-base");
  std::set<unsigned> groups;
  for (const ProgramNode& node : nodes_) {
    if (node.kind == ProgramNode::Kind::kOp) {
      const OperatorDef& def = registry_->def(node.op);
      if (def.netlist) n += def.netlist(width);
      continue;
    }
    // One comparator per encoded value; the group's RNG charged once.
    n += hw::comparator_netlist(width);
    if (groups.insert(node.rng_group).second) n += hw::lfsr_netlist(width);
  }
  return n;
}

GraphBuilder::GraphBuilder(const OperatorRegistry& reg)
    : next_constant_group_(kConstantGroupBase) {
  program_.registry_ = &reg;
}

NodeId GraphBuilder::push(ProgramNode node) {
  program_.nodes_.push_back(std::move(node));
  const auto id = static_cast<NodeId>(program_.nodes_.size() - 1);
  if (program_.nodes_.back().seed_tag == ProgramNode::kAutoSeedTag) {
    program_.nodes_.back().seed_tag = id;
  }
  if (!program_.nodes_.back().name.empty()) {
    names_.emplace(program_.nodes_.back().name, id);
  }
  return id;
}

std::string GraphBuilder::unique_name(std::string name) {
  if (name.empty() || names_.count(name) == 0) return name;
  for (unsigned suffix = 2;; ++suffix) {
    const std::string candidate = name + "." + std::to_string(suffix);
    if (names_.count(candidate) == 0) return candidate;
  }
}

Value GraphBuilder::input(std::string name, double value, unsigned rng_group) {
  if (!name.empty() && names_.count(name) != 0) {
    throw std::invalid_argument("GraphBuilder::input: duplicate name '" +
                                name + "'");
  }
  if (rng_group >= kConstantGroupBase) {
    throw std::invalid_argument(
        "GraphBuilder::input: rng_group collides with the constant range");
  }
  ProgramNode node;
  node.kind = ProgramNode::Kind::kInput;
  node.name = std::move(name);
  node.value = std::clamp(value, 0.0, 1.0);
  node.rng_group = rng_group;
  return Value{push(std::move(node))};
}

Value GraphBuilder::constant(double value, std::string name) {
  ProgramNode node;
  node.kind = ProgramNode::Kind::kConstant;
  node.name = unique_name(std::move(name));
  node.value = std::clamp(value, 0.0, 1.0);
  node.rng_group = next_constant_group_++;
  return Value{push(std::move(node))};
}

Value GraphBuilder::op(const std::string& op_name,
                       const std::vector<Value>& operands) {
  return op(program_.registry_->id_of(op_name), operands);
}

Value GraphBuilder::op(OpId id, const std::vector<Value>& operands) {
  if (id >= program_.registry_->size()) {
    throw std::invalid_argument("GraphBuilder::op: OpId out of range");
  }
  const OperatorDef& def = program_.registry_->def(id);
  if (operands.size() != def.arity) {
    throw std::invalid_argument(
        "GraphBuilder::op: '" + def.name + "' takes " +
        std::to_string(def.arity) + " operands, got " +
        std::to_string(operands.size()));
  }
  ProgramNode node;
  node.kind = ProgramNode::Kind::kOp;
  node.name = unique_name(def.name);
  node.op = id;
  node.operands.reserve(operands.size());
  for (const Value& v : operands) {
    if (v.id >= program_.nodes_.size()) {
      throw std::invalid_argument(
          "GraphBuilder::op: operand is not a value of this builder");
    }
    node.operands.push_back(v.id);
  }
  return Value{push(std::move(node))};
}

Value GraphBuilder::raw_node(ProgramNode node) {
  if (node.kind == ProgramNode::Kind::kOp) {
    if (node.op >= program_.registry_->size()) {
      throw std::invalid_argument("GraphBuilder::raw_node: OpId out of range");
    }
    for (NodeId operand : node.operands) {
      if (operand >= program_.nodes_.size()) {
        throw std::invalid_argument(
            "GraphBuilder::raw_node: operand references a later node");
      }
    }
  }
  return Value{push(std::move(node))};
}

GraphBuilder& GraphBuilder::output(Value v, std::string name) {
  if (v.id >= program_.nodes_.size()) {
    throw std::invalid_argument(
        "GraphBuilder::output: value is not from this builder");
  }
  if (!name.empty()) {
    const auto existing = names_.find(name);
    if (existing != names_.end() && existing->second != v.id) {
      throw std::invalid_argument("GraphBuilder::output: name '" + name +
                                  "' already names another value");
    }
    if (!program_.nodes_[v.id].name.empty()) {
      names_.erase(program_.nodes_[v.id].name);
    }
    names_.emplace(name, v.id);
    program_.nodes_[v.id].name = std::move(name);
  }
  program_.outputs_.push_back(v.id);
  return *this;
}

std::vector<Value> GraphBuilder::append(const Program& sub,
                                        const std::vector<Value>& arguments) {
  std::size_t input_count = 0;
  for (const ProgramNode& n : sub.nodes_) {
    if (n.kind == ProgramNode::Kind::kInput) ++input_count;
  }
  if (arguments.size() != input_count) {
    throw std::invalid_argument(
        "GraphBuilder::append: subprogram has " + std::to_string(input_count) +
        " inputs, got " + std::to_string(arguments.size()) + " arguments");
  }
  std::map<NodeId, NodeId> remap;
  std::size_t next_argument = 0;
  for (NodeId id = 0; id < sub.nodes_.size(); ++id) {
    const ProgramNode& n = sub.nodes_[id];
    switch (n.kind) {
      case ProgramNode::Kind::kInput: {
        const Value bound = arguments[next_argument++];
        if (bound.id >= program_.nodes_.size()) {
          throw std::invalid_argument(
              "GraphBuilder::append: argument is not from this builder");
        }
        remap[id] = bound.id;
        break;
      }
      case ProgramNode::Kind::kConstant:
        remap[id] = constant(n.value, n.name).id;
        break;
      case ProgramNode::Kind::kOp: {
        // Re-resolve by name so subprograms built against another registry
        // instance keep meaning (ids are registry-local).  The local
        // definition must agree on arity, or the spliced operand list
        // would not match the evaluator it now executes.
        const OperatorDef& sub_def = sub.reg().def(n.op);
        const OpId local = program_.registry_->id_of(sub_def.name);
        if (program_.registry_->def(local).arity != n.operands.size()) {
          throw std::invalid_argument(
              "GraphBuilder::append: operator '" + sub_def.name +
              "' has arity " +
              std::to_string(program_.registry_->def(local).arity) +
              " in this registry but " + std::to_string(n.operands.size()) +
              " in the subprogram");
        }
        ProgramNode copy;
        copy.kind = ProgramNode::Kind::kOp;
        copy.name = unique_name(n.name);
        copy.op = local;
        for (NodeId operand : n.operands) copy.operands.push_back(remap.at(operand));
        remap[id] = push(std::move(copy));
        break;
      }
    }
  }
  std::vector<Value> outs;
  outs.reserve(sub.outputs_.size());
  for (NodeId out : sub.outputs_) outs.push_back(Value{remap.at(out)});
  return outs;
}

Program GraphBuilder::build() {
  Program built = std::move(program_);
  program_ = Program{};
  program_.registry_ = built.registry_;
  names_.clear();
  return built;
}

}  // namespace sc::graph
