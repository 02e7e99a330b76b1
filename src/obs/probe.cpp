#include "obs/probe.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/telemetry.hpp"

namespace sc::obs {

OverlapCounts StreamProbe::Acc::counts() const {
  OverlapCounts c;
  c.a = a;
  c.b = ones_x - a;
  c.c = ones_y - a;
  c.d = bits - ones_x - ones_y + a;
  return c;
}

StreamProbe::StreamProbe(const ProbeSpec& spec, bool pair, Tracer* tracer)
    : spec_(spec), pair_(pair), tracer_(tracer) {
  spec_.window_bits = std::max<std::size_t>(64, spec_.window_bits);
  label_ = spec_.edge_x;
  if (pair_) label_ += "|" + spec_.edge_y;
  report_.edge_x = spec_.edge_x;
  report_.edge_y = pair_ ? spec_.edge_y : std::string();
  report_.window_bits = spec_.window_bits;
}

void StreamProbe::accumulate(const Bitstream& x, const Bitstream* y,
                             std::size_t local_begin, std::size_t count) {
  const Bitstream::Word* wx = x.words().data();
  const Bitstream::Word* wy =
      (pair_ && y != nullptr) ? y->words().data() : nullptr;
  const std::size_t end = local_begin + count;
  for (std::size_t i = local_begin; i < end;) {
    const std::size_t word = i / Bitstream::kWordBits;
    const std::size_t shift = i % Bitstream::kWordBits;
    const std::size_t take = std::min(Bitstream::kWordBits - shift, end - i);
    const Bitstream::Word mask =
        take == Bitstream::kWordBits
            ? ~Bitstream::Word{0}
            : (((Bitstream::Word{1} << take) - 1) << shift);
    const Bitstream::Word vx = wx[word] & mask;
    const auto ox = static_cast<std::uint64_t>(std::popcount(vx));
    window_.ones_x += ox;
    total_.ones_x += ox;
    if (wy != nullptr) {
      const Bitstream::Word vy = wy[word] & mask;
      const auto oy = static_cast<std::uint64_t>(std::popcount(vy));
      const auto both = static_cast<std::uint64_t>(std::popcount(vx & vy));
      window_.ones_y += oy;
      total_.ones_y += oy;
      window_.a += both;
      total_.a += both;
    }
    i += take;
  }
  window_.bits += count;
  total_.bits += count;
}

void StreamProbe::close_window() {
  ProbeWindow w;
  w.begin = window_begin_;
  w.bits = window_.bits;
  const OverlapCounts counts = window_.counts();
  w.value_x = window_.bits == 0
                  ? 0.0
                  : static_cast<double>(window_.ones_x) /
                        static_cast<double>(window_.bits);
  if (pair_) {
    w.value_y = window_.bits == 0
                    ? 0.0
                    : static_cast<double>(window_.ones_y) /
                          static_cast<double>(window_.bits);
    w.scc = scc(counts);
    w.scc_defined = scc_defined(counts);
  }
  report_.windows.push_back(w);
  if (tracer_ != nullptr) {
    tracer_->counter("probe." + label_ + ".value", w.value_x);
    if (pair_) tracer_->counter("probe." + label_ + ".scc", w.scc);
  }
  window_begin_ += window_.bits;
  window_.reset();
}

void StreamProbe::feed(const Bitstream& x, const Bitstream* y,
                       std::size_t offset, std::size_t bits) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The backends drive probes in stream order; a gap or replay would make
  // window offsets lie.
  assert(offset == consumed_);
  (void)offset;
  std::size_t local = 0;
  while (local < bits) {
    const std::size_t room = spec_.window_bits - window_.bits;
    const std::size_t take = std::min(room, bits - local);
    accumulate(x, y, local, take);
    consumed_ += take;
    local += take;
    if (window_.bits == spec_.window_bits) close_window();
  }
}

ProbeReport StreamProbe::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (window_.bits != 0) close_window();
  report_.running_value_x =
      total_.bits == 0 ? 0.0
                       : static_cast<double>(total_.ones_x) /
                             static_cast<double>(total_.bits);
  if (pair_) {
    report_.running_value_y =
        total_.bits == 0 ? 0.0
                         : static_cast<double>(total_.ones_y) /
                               static_cast<double>(total_.bits);
    const OverlapCounts counts = total_.counts();
    report_.running_scc = scc(counts);
    report_.running_scc_defined = scc_defined(counts);
  }
  return report_;
}

void ProbeSet::publish(Telemetry& telemetry) {
  for (const std::unique_ptr<Bound>& entry : bound_) {
    Bound& bound = *entry;
    ProbeReport report = bound.probe.finish();
    const std::string label =
        report.edge_y.empty() ? report.edge_x
                              : report.edge_x + "|" + report.edge_y;
    MetricsRegistry& metrics = telemetry.metrics();
    metrics.counter("probe." + label + ".windows")
        .add(report.windows.size());
    metrics.gauge("probe." + label + ".value").set(report.running_value_x);
    if (!report.edge_y.empty()) {
      metrics.gauge("probe." + label + ".scc").set(report.running_scc);
      if (!report.windows.empty()) {
        metrics.gauge("probe." + label + ".scc_last")
            .set(report.windows.back().scc);
      }
    }
    telemetry.add_probe_report(std::move(report));
  }
}

}  // namespace sc::obs
