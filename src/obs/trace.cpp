#include "obs/trace.hpp"

#include <limits>
#include <ostream>
#include <string>

#include "common/json_string.hpp"

namespace hi::obs {

const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kTx: return "tx";
    case TraceKind::kRxOk: return "rx_ok";
    case TraceKind::kRxCollision: return "rx_collision";
    case TraceKind::kDropBuffer: return "drop_buffer";
    case TraceKind::kBackoff: return "backoff";
    case TraceKind::kRadioDwell: return "radio_dwell";
    case TraceKind::kNodeEnergy: return "node_energy";
    case TraceKind::kKernel: return "kernel";
  }
  return "?";
}

void JsonlTraceSink::on_event(const TraceEvent& e) {
  JsonWriter w;
  w.object(JsonWriter::kInline).field("t", e.t_s);
  w.field("kind", to_string(e.kind)).field("node", e.node);
  w.field("peer", e.peer).field("a", e.a);
  w.field("x", e.x).field("y", e.y).end();
  const std::string line = w.take();
  std::lock_guard<std::mutex> lock(mu_);
  os_ << line << '\n';
}

void CsvTraceSink::on_event(const TraceEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!header_written_) {
    os_ << "t,kind,node,peer,a,x,y\n";
    header_written_ = true;
  }
  const auto old = os_.precision(std::numeric_limits<double>::max_digits10);
  os_ << e.t_s << ',' << to_string(e.kind) << ',' << e.node << ',' << e.peer
      << ',' << e.a << ',' << e.x << ',' << e.y << '\n';
  os_.precision(old);
}

}  // namespace hi::obs
