#include "campaign/timeline.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "util/json.h"

namespace tsyn::campaign {

namespace {

using util::json_escape;

/// trace_event timestamps are integer-friendly microseconds; one decimal
/// keeps sub-µs stage boundaries distinct without noisy precision.
std::string us(double ms) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.1f", ms * 1000.0);
  return buf;
}

void append_span(std::ostringstream& os, bool* first, const std::string& name,
                 const char* cat, int tid, double t0_ms, double t1_ms,
                 const std::string& args_key, const std::string& args_val) {
  if (!*first) os << ",\n";
  *first = false;
  os << "    {\"name\": \"" << json_escape(name) << "\", \"cat\": \"" << cat
     << "\", \"ph\": \"X\", \"ts\": " << us(t0_ms)
     << ", \"dur\": " << us(std::max(0.0, t1_ms - t0_ms))
     << ", \"pid\": 1, \"tid\": " << tid << ", \"args\": {\"" << args_key
     << "\": \"" << json_escape(args_val) << "\"}}";
}

}  // namespace

std::string timeline_to_json(const std::vector<JobSpan>& jobs) {
  std::vector<const JobSpan*> order;
  order.reserve(jobs.size());
  for (const JobSpan& j : jobs) order.push_back(&j);
  std::sort(order.begin(), order.end(),
            [](const JobSpan* a, const JobSpan* b) {
              if (a->slot != b->slot) return a->slot < b->slot;
              if (a->t0_ms != b->t0_ms) return a->t0_ms < b->t0_ms;
              return a->id < b->id;
            });

  std::set<int> slots;
  for (const JobSpan& j : jobs) slots.insert(j.slot);

  std::ostringstream os;
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  bool first = true;
  for (int slot : slots) {
    if (!first) os << ",\n";
    first = false;
    os << "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": "
       << slot << ", \"args\": {\"name\": \"worker-" << slot << "\"}}";
  }
  for (const JobSpan* j : order) {
    append_span(os, &first, j->id, "job", j->slot, j->t0_ms, j->t1_ms,
                "status", j->status);
    for (const StageSpan& st : j->stages)
      append_span(os, &first, st.name, "stage", j->slot, st.t0_ms, st.t1_ms,
                  "cache", st.cache);
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace tsyn::campaign
