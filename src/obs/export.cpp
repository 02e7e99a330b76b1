#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace sc::obs {
namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Prometheus label values escape backslash, double quote, and newline.
std::string label_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Renders `{k1="v1",k2="v2"}` (empty string for no labels), with an
/// optional extra label appended (used for histogram `le`).
std::string label_block(const Labels& labels, const std::string& extra_key = "",
                        const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    out += k + "=\"" + label_escape(v) + "\"";
    first = false;
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + label_escape(extra_value) + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::string prometheus_name(const std::string& name) {
  std::string out = "sc_";
  out.reserve(name.size() + 3);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prometheus_text(const MetricsSnapshot& snapshot,
                            const Labels& labels) {
  std::ostringstream out;
  const std::string block = label_block(labels);

  for (const auto& [name, value] : snapshot.counters) {
    const std::string pname = prometheus_name(name);
    out << "# TYPE " << pname << " counter\n";
    out << pname << block << " " << value << "\n";
  }
  for (const auto& [name, vm] : snapshot.gauges) {
    const std::string pname = prometheus_name(name);
    out << "# TYPE " << pname << " gauge\n";
    out << pname << block << " " << fmt_double(vm.first) << "\n";
    out << "# TYPE " << pname << "_max gauge\n";
    out << pname << "_max" << block << " " << fmt_double(vm.second) << "\n";
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    const std::string pname = prometheus_name(name);
    out << "# TYPE " << pname << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t k = 0; k < hist.buckets.size(); ++k) {
      if (hist.buckets[k] == 0) continue;  // keep expositions compact
      cumulative += hist.buckets[k];
      // Bucket k holds [2^(k-1), 2^k): its inclusive upper bound is
      // 2^k - 1 (bucket 0 holds exactly {0}).
      const double le = k == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(k)) - 1.0;
      out << pname << "_bucket" << label_block(labels, "le", fmt_double(le))
          << " " << cumulative << "\n";
    }
    out << pname << "_bucket" << label_block(labels, "le", "+Inf") << " "
        << hist.count << "\n";
    out << pname << "_sum" << block << " " << hist.sum << "\n";
    out << pname << "_count" << block << " " << hist.count << "\n";
  }
  return out.str();
}

}  // namespace sc::obs
