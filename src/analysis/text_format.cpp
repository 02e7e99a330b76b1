#include "analysis/text_format.hpp"

#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace sc::analysis {

using graph::GraphBuilder;
using graph::ProgramNode;
using graph::Value;

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("sct parse error at line " +
                              std::to_string(line) + ": " + what);
}

double parse_value(const std::string& token, std::size_t line) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(token, &consumed);
    if (consumed != token.size()) fail(line, "malformed number '" + token + "'");
    return value;
  } catch (const std::invalid_argument&) {
    fail(line, "malformed number '" + token + "'");
  } catch (const std::out_of_range&) {
    fail(line, "number out of range '" + token + "'");
  }
}

}  // namespace

graph::Program parse_program(const std::string& text,
                             const graph::OperatorRegistry& registry) {
  GraphBuilder builder(registry);
  std::map<std::string, Value> values;
  std::vector<std::pair<std::string, std::size_t>> outputs;

  std::istringstream stream(text);
  std::string raw_line;
  std::size_t line_no = 0;
  while (std::getline(stream, raw_line)) {
    ++line_no;
    const std::size_t hash = raw_line.find('#');
    if (hash != std::string::npos) raw_line.erase(hash);
    std::istringstream line(raw_line);
    std::string keyword;
    if (!(line >> keyword)) continue;

    if (keyword == "input") {
      std::string name, value_token, group_token;
      if (!(line >> name >> value_token)) {
        fail(line_no, "input needs: input <name> <value> [group=<n>]");
      }
      unsigned group = 0;
      if (line >> group_token) {
        if (group_token.rfind("group=", 0) != 0) {
          fail(line_no, "expected group=<n>, got '" + group_token + "'");
        }
        try {
          group = static_cast<unsigned>(
              std::stoul(group_token.substr(6)));
        } catch (const std::exception&) {
          fail(line_no, "malformed group id '" + group_token + "'");
        }
      }
      if (values.count(name)) fail(line_no, "duplicate name '" + name + "'");
      try {
        values[name] = builder.input(name, parse_value(value_token, line_no),
                                     group);
      } catch (const std::invalid_argument& error) {
        fail(line_no, error.what());
      }
    } else if (keyword == "const") {
      std::string name, value_token;
      if (!(line >> name >> value_token)) {
        fail(line_no, "const needs: const <name> <value>");
      }
      if (values.count(name)) fail(line_no, "duplicate name '" + name + "'");
      try {
        values[name] =
            builder.constant(parse_value(value_token, line_no), name);
      } catch (const std::invalid_argument& error) {
        fail(line_no, error.what());
      }
    } else if (keyword == "op") {
      std::string name, op_name;
      if (!(line >> name >> op_name)) {
        fail(line_no, "op needs: op <name> <operator> <operand>...");
      }
      std::vector<Value> operands;
      std::string operand;
      while (line >> operand) {
        const auto it = values.find(operand);
        if (it == values.end()) {
          fail(line_no, "undefined operand '" + operand + "'");
        }
        operands.push_back(it->second);
      }
      if (values.count(name)) fail(line_no, "duplicate name '" + name + "'");
      const graph::OperatorDef* def = registry.find(op_name);
      if (def == nullptr) {
        fail(line_no, "unknown operator '" + op_name + "'");
      }
      if (operands.size() != def->arity) {
        fail(line_no, "'" + op_name + "' takes " +
                          std::to_string(def->arity) + " operands, got " +
                          std::to_string(operands.size()));
      }
      // raw_node instead of op(): keeps the user's chosen node name (op()
      // would name the node after the operator).
      ProgramNode node;
      node.kind = ProgramNode::Kind::kOp;
      node.name = name;
      node.op = registry.id_of(op_name);
      for (const Value& operand_value : operands) {
        node.operands.push_back(operand_value.id);
      }
      try {
        values[name] = builder.raw_node(std::move(node));
      } catch (const std::invalid_argument& error) {
        fail(line_no, error.what());
      }
    } else if (keyword == "output") {
      std::string name;
      if (!(line >> name)) fail(line_no, "output needs: output <name>");
      outputs.emplace_back(name, line_no);
    } else {
      fail(line_no, "unknown statement '" + keyword + "'");
    }
  }

  if (outputs.empty()) {
    throw std::invalid_argument(
        "sct parse error: program declares no output");
  }
  for (const auto& [name, line] : outputs) {
    const auto it = values.find(name);
    if (it == values.end()) fail(line, "undefined output '" + name + "'");
    builder.output(it->second);
  }
  return builder.build();
}

std::string serialize_program(const graph::Program& program) {
  std::ostringstream out;
  std::vector<std::string> names(program.node_count());
  for (graph::NodeId id = 0; id < program.node_count(); ++id) {
    const ProgramNode& node = program.node(id);
    names[id] = node.name;
    if (names[id].empty()) names[id].append("v").append(std::to_string(id));
    switch (node.kind) {
      case ProgramNode::Kind::kInput:
        out << "input " << names[id] << " " << node.value << " group="
            << node.rng_group << "\n";
        break;
      case ProgramNode::Kind::kConstant:
        out << "const " << names[id] << " " << node.value << "\n";
        break;
      case ProgramNode::Kind::kOp: {
        out << "op " << names[id] << " " << program.def_of(id).name;
        for (const graph::NodeId operand : node.operands) {
          out << " " << names[operand];
        }
        out << "\n";
        break;
      }
    }
  }
  for (const graph::NodeId id : program.outputs()) {
    out << "output " << names[id] << "\n";
  }
  return out.str();
}

}  // namespace sc::analysis
