#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

namespace nezha::obs {
namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point TracerEpoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

std::atomic<std::uint32_t> g_next_thread_id{1};

thread_local std::uint32_t t_thread_id = 0;

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::uint32_t CurrentThreadId() {
  if (t_thread_id == 0) {
    t_thread_id = g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  }
  return t_thread_id;
}

void SetThreadName(std::string_view name) {
  const std::uint32_t tid = CurrentThreadId();
  PhaseTracer& tracer = PhaseTracer::Global();
  MutexLock lock(tracer.mutex_);
  tracer.thread_names_[tid] = std::string(name);
}

PhaseTracer& PhaseTracer::Global() {
  static PhaseTracer* tracer = new PhaseTracer();  // never freed
  return *tracer;
}

double PhaseTracer::NowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   TracerEpoch())
      .count();
}

void PhaseTracer::SetCapacity(std::size_t capacity) {
  MutexLock lock(mutex_);
  capacity_ = std::max<std::size_t>(1, capacity);
  if (ring_.size() > capacity_) {
    // Keep the newest events: rotate so the ring is in insertion order,
    // then drop from the front.
    std::rotate(ring_.begin(), ring_.begin() + static_cast<long>(next_),
                ring_.end());
    ring_.erase(ring_.begin(),
                ring_.end() - static_cast<long>(capacity_));
    next_ = 0;
  }
}

void PhaseTracer::Record(TraceEvent event) {
  MutexLock lock(mutex_);
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  ring_[next_] = std::move(event);
  next_ = (next_ + 1) % capacity_;
}

std::vector<TraceEvent> PhaseTracer::Events() const {
  std::vector<TraceEvent> out;
  {
    MutexLock lock(mutex_);
    out = ring_;
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  return out;
}

std::size_t PhaseTracer::EventCount() const {
  MutexLock lock(mutex_);
  return ring_.size();
}

std::uint64_t PhaseTracer::TotalRecorded() const {
  MutexLock lock(mutex_);
  return recorded_;
}

void PhaseTracer::Clear() {
  MutexLock lock(mutex_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

std::vector<std::pair<std::uint32_t, std::string>> PhaseTracer::ThreadNames()
    const {
  std::vector<std::pair<std::uint32_t, std::string>> names;
  {
    MutexLock lock(mutex_);
    names.assign(thread_names_.begin(), thread_names_.end());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string PhaseTracer::ExportChromeTrace() const {
  const std::vector<TraceEvent> events = Events();
  std::vector<std::string> entries;
  entries.reserve(events.size() + 8);
  // Metadata first: name the process and every registered thread so the
  // viewer shows labeled rows instead of bare tids.
  entries.push_back(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1"
      ",\"args\":{\"name\":\"nezha\"}}");
  for (const auto& [tid, name] : ThreadNames()) {
    std::ostringstream meta;
    meta << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
         << ",\"args\":{\"name\":\"" << JsonEscape(name) << "\"}}";
    entries.push_back(meta.str());
  }
  for (const TraceEvent& e : events) {
    std::ostringstream line;
    if (e.counter) {
      // Counter tracks key the value by the track name so the viewer draws
      // one series per name.
      line << "{\"name\":\"" << JsonEscape(e.name) << "\",\"ph\":\"C\""
           << ",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":" << e.ts_us
           << ",\"args\":{\"" << JsonEscape(e.name) << "\":" << e.value
           << "}}";
    } else {
      line << "{\"name\":\"" << JsonEscape(e.name) << "\",\"ph\":\"X\""
           << ",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":" << e.ts_us
           << ",\"dur\":" << e.dur_us << ",\"args\":{\"depth\":" << e.depth
           << "}}";
    }
    entries.push_back(line.str());
  }
  std::ostringstream out;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << entries[i];
    if (i + 1 < entries.size()) out << ",";
    out << "\n";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

bool PhaseTracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file.is_open()) return false;
  file << ExportChromeTrace();
  return file.good();
}

}  // namespace nezha::obs
