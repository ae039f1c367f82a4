#include "obs/trace.hpp"

#include "obs/json.hpp"

namespace vnet::obs {

void Tracer::push(TraceEvent e) {
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
    return;
  }
  ring_[head_] = std::move(e);
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

void Tracer::instant(const char* cat, std::string name, int pid, int tid,
                     Args args) {
  if (!enabled_) return;
  TraceEvent e;
  e.ph = 'i';
  e.ts_ns = now();
  e.pid = pid;
  e.tid = tid;
  e.cat = cat;
  e.name = std::move(name);
  e.args.assign(args.begin(), args.end());
  push(std::move(e));
}

void Tracer::complete(const char* cat, std::string name, std::int64_t start_ns,
                      int pid, int tid, Args args) {
  if (!enabled_) return;
  TraceEvent e;
  e.ph = 'X';
  e.ts_ns = start_ns;
  e.dur_ns = now() - start_ns;
  if (e.dur_ns < 0) e.dur_ns = 0;
  e.pid = pid;
  e.tid = tid;
  e.cat = cat;
  e.name = std::move(name);
  e.args.assign(args.begin(), args.end());
  push(std::move(e));
}

void Tracer::set_process_name(int pid, std::string name) {
  meta_.push_back({pid, 0, false, std::move(name)});
}

void Tracer::set_thread_name(int pid, int tid, std::string name) {
  meta_.push_back({pid, tid, true, std::move(name)});
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for_each_event([&](const TraceEvent& e) { out.push_back(e); });
  return out;
}

void Tracer::set_capacity(std::size_t cap) {
  if (cap == 0) cap = 1;
  // Linearize if the ring has wrapped (so future pushes append after the
  // newest event) and trim to the newest `cap` events when shrinking; the
  // discarded oldest count as dropped.
  if (ring_.size() > cap || head_ != 0) {
    const std::size_t n = ring_.size();
    const std::size_t kept = n < cap ? n : cap;
    std::vector<TraceEvent> keep;
    keep.reserve(kept);
    for (std::size_t i = n - kept; i < n; ++i) {
      keep.push_back(std::move(ring_[(head_ + i) % n]));
    }
    dropped_ += n - kept;
    ring_ = std::move(keep);
    head_ = 0;
  }
  capacity_ = cap;
}

void Tracer::clear() {
  ring_.clear();
  head_ = 0;
  meta_.clear();
}

std::string Tracer::chrome_trace_json() const {
  std::string out;
  out.reserve(ring_.size() * 96 + 64);
  json::Writer w(out);
  const auto us = [](std::int64_t ns) { return static_cast<double>(ns) / 1e3; };
  w.begin_object().key("traceEvents").begin_array();
  for (const Meta& m : meta_) {
    w.begin_object();
    w.key("ph").string("M");
    w.key("name").string(m.thread ? "thread_name" : "process_name");
    w.key("pid").integer(m.pid);
    w.key("tid").integer(m.tid);
    w.key("args").begin_object().key("name").string(m.name).end_object();
    w.end_object();
  }
  for_each_event([&](const TraceEvent& e) {
    w.begin_object();
    w.key("ph").string(std::string_view(&e.ph, 1));
    w.key("name").string(e.name);
    w.key("cat").string(e.cat);
    w.key("ts").number(us(e.ts_ns));
    if (e.ph == 'X') w.key("dur").number(us(e.dur_ns));
    if (e.ph == 'i') w.key("s").string("t");
    w.key("pid").integer(e.pid);
    w.key("tid").integer(e.tid);
    if (!e.args.empty()) {
      w.key("args").begin_object();
      for (const TraceArg& a : e.args) w.key(a.key).integer(a.value);
      w.end_object();
    }
    w.end_object();
  });
  w.end_array().key("displayTimeUnit").string("ns").end_object();
  return out;
}

}  // namespace vnet::obs
