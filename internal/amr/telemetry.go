package amr

import (
	"walberla/internal/telemetry"
)

// amrTel bundles the pre-resolved telemetry handles of one rank. All
// handles are nil-safe, so an untraced simulation pays one branch per
// recording site.
type amrTel struct {
	driver *telemetry.Lane

	regrades *telemetry.Counter
	splits   *telemetry.Counter
	merges   *telemetry.Counter
	migrated *telemetry.Counter

	leaves   *telemetry.Gauge
	maxLevel *telemetry.Gauge
	cells    *telemetry.Gauge

	regradeNs *telemetry.Counter
	migrateNs *telemetry.Counter
}

func resolveAMRTel(tr *telemetry.Tracer, reg *telemetry.Registry) amrTel {
	return amrTel{
		driver:    tr.Driver(),
		regrades:  reg.Counter("amr.regrades"),
		splits:    reg.Counter("amr.blocks_split"),
		merges:    reg.Counter("amr.blocks_merged"),
		migrated:  reg.Counter("amr.blocks_migrated"),
		leaves:    reg.Gauge("amr.leaves"),
		maxLevel:  reg.Gauge("amr.max_level"),
		cells:     reg.Gauge("amr.cells"),
		regradeNs: reg.Counter("amr.regrade_ns"),
		migrateNs: reg.Counter("amr.migrate_ns"),
	}
}
