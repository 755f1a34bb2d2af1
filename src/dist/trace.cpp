#include "dist/trace.h"

#include <sstream>

namespace bds::dist {

namespace {

void append_attempt(std::ostringstream& out, const AttemptSpan& a) {
  out << "{\"attempt\":" << a.attempt << ",\"fault\":\""
      << fault_kind_name(a.fault) << "\",\"delivered\":"
      << (a.delivered ? "true" : "false") << ",\"evals\":" << a.evals
      << ",\"seconds\":" << a.seconds;
  if (a.backoff_seconds > 0.0) {
    out << ",\"backoff_seconds\":" << a.backoff_seconds;
  }
  out << "}";
}

void append_machine(std::ostringstream& out, const MachineSpan& m) {
  out << "{\"machine\":" << m.machine << ",\"heard\":"
      << (m.heard ? "true" : "false") << ",\"degraded\":"
      << (m.degraded ? "true" : "false")
      << ",\"summary_size\":" << m.summary_size;
  out << ",\"attempts\":[";
  for (std::size_t i = 0; i < m.attempts.size(); ++i) {
    if (i != 0) out << ",";
    append_attempt(out, m.attempts[i]);
  }
  out << "]}";
}

// A machine with one clean delivered attempt carries no information beyond
// its summary size; eliding it keeps healthy traces one line per round.
bool is_clean(const MachineSpan& m) {
  return m.heard && !m.degraded && m.attempts.size() == 1 &&
         m.attempts[0].fault == FaultKind::kNone;
}

}  // namespace

std::string trace_to_json(const ExecutionTrace& trace) {
  std::ostringstream out;
  out << "{\"rounds\":[";
  for (std::size_t r = 0; r < trace.rounds.size(); ++r) {
    const RoundSpan& round = trace.rounds[r];
    if (r != 0) out << ",";
    out << "\n{\"round\":" << round.round_index
        << ",\"phases\":{\"scatter_seconds\":" << round.scatter_seconds
        << ",\"map_seconds\":" << round.map_seconds
        << ",\"gather_seconds\":" << round.gather_seconds
        << ",\"filter_seconds\":" << round.filter_seconds << "}"
        << ",\"machines\":" << round.machines.size()
        << ",\"transport\":\"" << round.transport << "\""
        << ",\"wire_bytes_sent\":" << round.wire_bytes_sent
        << ",\"wire_bytes_received\":" << round.wire_bytes_received
        << ",\"retries\":" << round.retries
        << ",\"faults_injected\":" << round.faults_injected;
    out << ",\"unheard\":[";
    for (std::size_t i = 0; i < round.unheard.size(); ++i) {
      if (i != 0) out << ",";
      out << round.unheard[i];
    }
    out << "]";
    out << ",\"faulted_machines\":[";
    bool first = true;
    for (const MachineSpan& m : round.machines) {
      if (is_clean(m)) continue;
      if (!first) out << ",";
      first = false;
      append_machine(out, m);
    }
    out << "]}";
  }
  out << "\n]}";
  return out.str();
}

std::string query_spans_to_json(const std::vector<QuerySpan>& spans) {
  std::ostringstream out;
  out << "{\"queries\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const QuerySpan& q = spans[i];
    if (i != 0) out << ",";
    out << "\n{\"query\":" << q.query_id << ",\"tenant\":\"" << q.tenant
        << "\",\"outcome\":\"" << q.outcome << "\",\"k\":" << q.budget_k
        << ",\"items\":" << q.items
        << ",\"queue_seconds\":" << q.queue_seconds
        << ",\"run_seconds\":" << q.run_seconds
        << ",\"total_seconds\":" << q.total_seconds
        << ",\"epoch\":" << q.epoch
        << ",\"recertified\":" << q.summaries_recertified
        << ",\"invalidated\":" << q.summaries_invalidated << "}";
  }
  out << "\n]}";
  return out.str();
}

}  // namespace bds::dist
