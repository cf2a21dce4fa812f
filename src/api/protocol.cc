#include "api/protocol.h"

#include "obs/metrics.h"

namespace helios {

void ProtocolCluster::ExportRecoveryMetrics(
    obs::MetricsRegistry* registry) const {
  const RecoveryStats stats = recovery_snapshot();
  if (stats.recoveries == 0) return;
  registry->counter("recovery.recoveries").Set(stats.recoveries);
  registry->counter("recovery.records_replayed").Set(stats.records_replayed);
  registry->counter("recovery.catchup_records").Set(stats.catchup_records);
  registry->counter("recovery.duration_us").Set(stats.duration_us);
}

}  // namespace helios
