#include "obs/trace.hpp"

#include "common/json.hpp"

namespace paraleon::obs {

const char* trace_category_name(TraceCategory c) {
  switch (c) {
    case TraceCategory::kPacket:
      return "packet";
    case TraceCategory::kPfc:
      return "pfc";
    case TraceCategory::kRp:
      return "rp";
    case TraceCategory::kMonitor:
      return "monitor";
    case TraceCategory::kSa:
      return "sa";
  }
  return "unknown";
}

void TraceRecorder::configure(const TraceConfig& cfg) {
  std::uint32_t mask = 0;
  if (cfg.packet) mask |= static_cast<std::uint32_t>(TraceCategory::kPacket);
  if (cfg.pfc) mask |= static_cast<std::uint32_t>(TraceCategory::kPfc);
  if (cfg.rp) mask |= static_cast<std::uint32_t>(TraceCategory::kRp);
  if (cfg.monitor) {
    mask |= static_cast<std::uint32_t>(TraceCategory::kMonitor);
  }
  if (cfg.sa) mask |= static_cast<std::uint32_t>(TraceCategory::kSa);
  mask_.store(mask, std::memory_order_relaxed);
  common::MutexLock lock(mu_);
  capacity_ = cfg.capacity == 0 ? 1 : cfg.capacity;
  clear_locked();
}

void TraceRecorder::clear() {
  common::MutexLock lock(mu_);
  clear_locked();
}

void TraceRecorder::clear_locked() {
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

std::size_t TraceRecorder::recorded() const {
  common::MutexLock lock(mu_);
  return ring_.size();
}

const TraceEvent& TraceRecorder::at_oldest_first(std::size_t i) const {
  // Until the ring wraps, ring_[0] is oldest; afterwards next_ points at
  // the oldest retained event.
  const std::size_t start = ring_.size() < capacity_ ? 0 : next_;
  return ring_[(start + i) % ring_.size()];
}

void TraceRecorder::push(const TraceEvent& ev) {
  common::MutexLock lock(mu_);
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
    return;
  }
  ring_[next_] = ev;
  next_ = (next_ + 1) % capacity_;
}

namespace {

void fill_args(TraceEvent& ev, std::initializer_list<TraceArg> args) {
  for (const TraceArg& a : args) {
    if (ev.n_args >= 3) break;
    ev.args[ev.n_args++] = a;
  }
}

}  // namespace

void TraceRecorder::instant(TraceCategory c, const char* name, Time ts,
                            std::int64_t pid, std::int64_t tid,
                            std::initializer_list<TraceArg> args) {
  if (!enabled(c)) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = c;
  ev.ph = 'i';
  ev.ts = ts;
  ev.pid = pid;
  ev.tid = tid;
  fill_args(ev, args);
  push(ev);
}

void TraceRecorder::complete(TraceCategory c, const char* name, Time ts,
                             Time dur, std::int64_t pid, std::int64_t tid,
                             std::initializer_list<TraceArg> args) {
  if (!enabled(c)) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = c;
  ev.ph = 'X';
  ev.ts = ts;
  ev.dur = dur;
  ev.pid = pid;
  ev.tid = tid;
  fill_args(ev, args);
  push(ev);
}

void TraceRecorder::begin_span(TraceCategory c, const char* name, Time ts,
                               std::int64_t pid, std::int64_t tid,
                               std::initializer_list<TraceArg> args) {
  if (!enabled(c)) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = c;
  ev.ph = 'B';
  ev.ts = ts;
  ev.pid = pid;
  ev.tid = tid;
  fill_args(ev, args);
  push(ev);
}

void TraceRecorder::end_span(TraceCategory c, const char* name, Time ts,
                             std::int64_t pid, std::int64_t tid) {
  if (!enabled(c)) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = c;
  ev.ph = 'E';
  ev.ts = ts;
  ev.pid = pid;
  ev.tid = tid;
  push(ev);
}

std::string TraceRecorder::to_json() const {
  using common::Json;
  // Chrome's `ts` unit is microseconds. ns / 1e3 is the double nearest the
  // exact 3-decimal value, so the shortest round-trip digits spell it.
  const auto us = [](Time ns) {
    return Json::make_number(static_cast<double>(ns) / 1e3);
  };
  std::string out;
  out.reserve(recorded() * 96 + 256);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  // One small Json value per event, streamed: a replay's million-event
  // ring never becomes one DOM. The value is refilled in place, so its
  // member storage is allocated once, not per event.
  Json event = Json::make_object();
  auto& m = event.members();
  bool first = true;
  for_each([&](const TraceEvent& ev) {
    m.clear();
    m.emplace_back("name", Json::make_string(ev.name));
    m.emplace_back("cat", Json::make_string(trace_category_name(ev.cat)));
    m.emplace_back("ph", Json::make_string(std::string(1, ev.ph)));
    m.emplace_back("ts", us(ev.ts));
    if (ev.ph == 'X') m.emplace_back("dur", us(ev.dur));
    m.emplace_back("pid", Json::make_int(ev.pid));
    m.emplace_back("tid", Json::make_int(ev.tid));
    if (ev.n_args > 0) {
      Json args = Json::make_object();
      for (int i = 0; i < ev.n_args; ++i) {
        args.set(ev.args[i].key, Json::make_int(ev.args[i].value));
      }
      m.emplace_back("args", std::move(args));
    }
    out += first ? "\n" : ",\n";
    first = false;
    event.dump_line(out);
  });
  out += "\n]}\n";
  return out;
}

}  // namespace paraleon::obs
