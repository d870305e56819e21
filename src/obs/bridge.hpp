// Importers that fold the pre-existing instrumentation stores into the
// unified MetricsRegistry.
//
// Header-only on purpose: the obs core library sits at the bottom of the
// stack (it links nothing but Threads), so it cannot (and should not) link
// against comm or teuchos. Each layer that owns a stat store includes this
// header and folds its own numbers in — unused inline functions emit no
// symbols, so including it never forces a link dependency the caller
// doesn't already have. (util::TaskPool folds its own pool.* metrics
// directly — util links obs, so it needs no importer here.)
#pragma once

#include <string>

#include "comm/fault.hpp"
#include "comm/stats.hpp"
#include "obs/metrics.hpp"
#include "teuchos/timer.hpp"

namespace pyhpc::obs {

/// Folds one CommStats into `reg` under `<prefix>.*`. Message/byte counts
/// accumulate (call once per rank, or once with the aggregate); the mailbox
/// high-water mark folds with max.
inline void import_comm_stats(MetricsRegistry& reg,
                              const comm::CommStats& s,
                              const std::string& prefix = "comm") {
  reg.add(prefix + ".p2p_messages_sent", static_cast<double>(s.p2p_messages_sent));
  reg.add(prefix + ".p2p_bytes_sent", static_cast<double>(s.p2p_bytes_sent));
  reg.add(prefix + ".p2p_messages_received",
          static_cast<double>(s.p2p_messages_received));
  reg.add(prefix + ".p2p_bytes_received",
          static_cast<double>(s.p2p_bytes_received));
  reg.add(prefix + ".coll_messages_sent",
          static_cast<double>(s.coll_messages_sent));
  reg.add(prefix + ".coll_bytes_sent", static_cast<double>(s.coll_bytes_sent));
  reg.add(prefix + ".coll_messages_received",
          static_cast<double>(s.coll_messages_received));
  reg.add(prefix + ".coll_bytes_received",
          static_cast<double>(s.coll_bytes_received));
  reg.add(prefix + ".collectives", static_cast<double>(s.collectives));
  reg.add(prefix + ".retries", static_cast<double>(s.retries));
  reg.add(prefix + ".timeouts", static_cast<double>(s.timeouts));
  reg.add(prefix + ".drops_detected", static_cast<double>(s.drops_detected));
  reg.add(prefix + ".corruption_detected",
          static_cast<double>(s.corruption_detected));
  reg.set_max(prefix + ".mailbox_highwater_bytes",
              static_cast<double>(s.mailbox_highwater_bytes));
  reg.add(prefix + ".bytes_copied", static_cast<double>(s.bytes_copied));
  reg.add(prefix + ".zero_copy_messages",
          static_cast<double>(s.zero_copy_messages));
  reg.add(prefix + ".zero_copy_bytes",
          static_cast<double>(s.zero_copy_bytes));
  reg.add(prefix + ".arena_hits", static_cast<double>(s.arena_hits));
  reg.add(prefix + ".arena_misses", static_cast<double>(s.arena_misses));
  reg.add(prefix + ".algo_linear", static_cast<double>(s.algo_linear));
  reg.add(prefix + ".algo_recursive_doubling",
          static_cast<double>(s.algo_recursive_doubling));
  reg.add(prefix + ".algo_rabenseifner",
          static_cast<double>(s.algo_rabenseifner));
  reg.add(prefix + ".algo_ring", static_cast<double>(s.algo_ring));
  reg.add(prefix + ".algo_bruck", static_cast<double>(s.algo_bruck));
  reg.add(prefix + ".algo_binomial", static_cast<double>(s.algo_binomial));
}

/// Folds injected-fault totals into `reg` under `<prefix>.*` (counters).
inline void import_fault_counts(MetricsRegistry& reg,
                                const comm::FaultCounts& c,
                                const std::string& prefix = "faults") {
  reg.add(prefix + ".drops", static_cast<double>(c.drops));
  reg.add(prefix + ".delays", static_cast<double>(c.delays));
  reg.add(prefix + ".duplicates", static_cast<double>(c.duplicates));
  reg.add(prefix + ".corruptions", static_cast<double>(c.corruptions));
  reg.add(prefix + ".kills", static_cast<double>(c.kills));
}

/// The full unified snapshot: everything already folded into the global
/// registry, plus the current teuchos::TimeMonitor table appended as
/// `timer.<name>.seconds` / `timer.<name>.count` gauges.
inline std::vector<Metric> unified_snapshot(
    MetricsRegistry& reg = MetricsRegistry::global()) {
  std::vector<Metric> out = reg.snapshot();
  for (const auto& [name, seconds, count] : teuchos::TimeMonitor::summary()) {
    out.push_back(Metric{"timer." + name + ".seconds", MetricKind::kGauge,
                         seconds});
    out.push_back(Metric{"timer." + name + ".count", MetricKind::kGauge,
                         static_cast<double>(count)});
  }
  return out;
}

}  // namespace pyhpc::obs
