#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/causal.h"
#include "obs/json.h"

namespace e10::obs {

Span::Span(Tracer* tracer, int track, std::string_view name) {
  if (tracer != nullptr && tracer->enabled()) {
    start(tracer, track, tracer->intern(name));
  }
}

Span::Span(Tracer* tracer, int track, prof::Phase phase) {
  if (tracer != nullptr && tracer->enabled()) {
    start(tracer, track, static_cast<NameId>(phase));
  }
}

void Span::start(Tracer* tracer, int track, NameId name) {
  tracer_ = tracer;
  track_ = track;
  name_ = name;
  start_ = tracer->engine_.now();
  pid_ = tracer->engine_.in_process() ? tracer->engine_.current()
                                      : sim::kNoProcess;
  ++tracer->open_spans_;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    *this = static_cast<const Span&>(other);
    other.tracer_ = nullptr;
  }
  return *this;
}

void Span::arg(std::string_view key, std::int64_t value) {
  if (tracer_ == nullptr) return;
  add_arg({tracer_->intern(key), 0, value, kNoArg, true});
}

void Span::arg(std::string_view key, std::string_view value) {
  if (tracer_ == nullptr) return;
  add_arg({tracer_->intern(key), tracer_->intern(value), 0, kNoArg, false});
}

void Span::add_arg(const SpanArg& arg) {
  std::vector<SpanArg>& pool = tracer_->args_;
  const auto index = static_cast<ArgIndex>(pool.size());
  pool.push_back(arg);
  (last_arg_ == kNoArg ? first_arg_ : pool[last_arg_].next) = index;
  last_arg_ = index;
}

void Span::record() {
  tracer_->events_.push_back(Tracer::Event{start_,
                                           tracer_->engine_.now() - start_,
                                           pid_, track_, name_, first_arg_});
  --tracer_->open_spans_;
  tracer_ = nullptr;
}

void Tracer::set_enabled(bool on) {
  enabled_ = on;
  // Phases first (id == enum value), on first enable: none when untraced.
  for (std::size_t p = names_.size(); on && p < prof::kPhaseCount; ++p) {
    intern(prof::phase_name(static_cast<prof::Phase>(p)));
  }
}

NameId Tracer::intern(std::string_view name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<NameId>(names_.size());
  name_ids_.emplace(names_.emplace_back(name), id);
  return id;
}

int Tracer::track(const std::string& name, int sort_index) {
  const auto it = track_ids_.find(name);
  if (it != track_ids_.end()) return it->second;
  const int id = static_cast<int>(tracks_.size());
  int sort = sort_index;
  if (sort < 0) {
    sort = 0;
    for (const TrackInfo& t : tracks_) sort = std::max(sort, t.sort_index + 1);
  }
  tracks_.push_back(TrackInfo{name, sort});
  track_ids_.emplace(name, id);
  return id;
}

int Tracer::rank_track(int rank) {
  const auto index = static_cast<std::size_t>(rank);
  if (index >= rank_tracks_.size()) rank_tracks_.resize(index + 1, -1);
  if (rank_tracks_[index] < 0) {
    rank_tracks_[index] = track("rank " + std::to_string(rank), rank);
    tracks_[static_cast<std::size_t>(rank_tracks_[index])].rank = rank;
  }
  return rank_tracks_[index];
}

void Tracer::counter(std::string_view name, std::int64_t value) {
  if (!enabled_) return;
  events_.push_back(Event{engine_.now(), value, sim::kNoProcess, 0,
                          intern(name), kNoArg, 'C'});
}

void Tracer::instant(int track_id, std::string_view name) {
  if (!enabled_) return;
  events_.push_back(Event{engine_.now(), 0, sim::kNoProcess, track_id,
                          intern(name), kNoArg, 'i'});
}

void Tracer::clear() {
  tracks_.clear();
  track_ids_.clear();
  rank_tracks_.clear();
  events_.clear();
  args_.clear();
  open_spans_ = 0;
}

namespace {

/// Virtual ns -> trace "ts"/"dur" microseconds with ns resolution kept.
void append_us(std::string& out, Time ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

}  // namespace

std::string Tracer::to_json() const {
  std::string out;
  out.reserve(128 + events_.size() * 96 + tracks_.size() * 128);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  comma();
  out += R"j({"ph":"M","pid":0,"tid":0,"name":"process_name",)j"
         R"j("args":{"name":"e10 collective-write pipeline (virtual time)"}})j";

  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    const std::string tid = std::to_string(i);
    comma();
    out += R"({"ph":"M","pid":0,"tid":)" + tid +
           R"(,"name":"thread_name","args":{"name":")";
    json_escape(tracks_[i].name, out);
    out += "\"}}";
    comma();
    out += R"({"ph":"M","pid":0,"tid":)" + tid +
           R"(,"name":"thread_sort_index","args":{"sort_index":)" +
           std::to_string(tracks_[i].sort_index) + "}}";
  }

  auto head = [&](char phase, int track, std::string_view name, Time ts) {
    comma();
    out += "{\"ph\":\"";
    out += phase;
    out += "\",\"pid\":0,\"tid\":" + std::to_string(track) + ",\"name\":\"";
    json_escape(name, out);
    out += "\",\"ts\":";
    append_us(out, ts);
  };
  // Each process's lane: the track of its last span, as the analyzer has it.
  std::unordered_map<sim::ProcessId, int> lanes;
  for (const Event& event : events_) {
    head(event.phase, event.track, names_[event.name], event.ts);
    switch (event.phase) {
      case 'X':
        if (event.pid != sim::kNoProcess) lanes[event.pid] = event.track;
        out += ",\"dur\":";
        append_us(out, event.dur);
        if (event.args == kNoArg) break;
        out += ",\"args\":{";
        for (ArgIndex i = event.args; i != kNoArg; i = args_[i].next) {
          const SpanArg& arg = args_[i];
          if (i != event.args) out += ',';
          out += '"';
          json_escape(names_[arg.key], out);
          out += "\":";
          if (arg.numeric) {
            out += std::to_string(arg.value);
          } else {
            out += '"';
            json_escape(names_[arg.text], out);
            out += '"';
          }
        }
        out += '}';
        break;
      case 'C':
        out += ",\"args\":{\"value\":";
        out += std::to_string(event.dur);
        out += '}';
        break;
      case 'i':
        out += ",\"s\":\"t\"";
        break;
    }
    out += '}';
  }

  if (causal_ != nullptr) {
    for (const CausalRecorder::Ack& ack : causal_->acks()) {
      const CausalRecorder::Emission& src = causal_->source_of(ack);
      if (src.pid == ack.pid) continue;
      const auto from = lanes.find(src.pid);
      const auto to = lanes.find(ack.pid);
      if (from == lanes.end() || to == lanes.end()) continue;
      const std::string_view name = sim::edge_kind_name(src.kind);
      const std::string id = std::to_string(ack.token);
      head('s', from->second, name, src.at);
      out += ",\"cat\":\"causal\",\"id\":" + id + '}';
      // Chrome requires the start's timestamp to be <= the finish's.
      head('f', to->second, name, std::max(ack.at, src.at));
      out += ",\"cat\":\"causal\",\"id\":" + id + ",\"bp\":\"e\"}";
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

Status Tracer::write(const std::string& path) const {
  return write_text_file(path, to_json());
}

}  // namespace e10::obs
