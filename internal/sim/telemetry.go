package sim

import "sync/atomic"

// Sync telemetry: cheap package-global counters that expose barrier
// pressure — how often host-parallel CPUs had to stop, how long they
// waited, how wide the granted sync domains were, and how much TLB
// invalidation work was coalesced into batched IPI rounds. The
// counters are cumulative across machines; callers that want
// per-experiment numbers snapshot before and after (only meaningful
// when experiments run one at a time, mirroring the allocation
// accounting in internal/bench).

var telemetry struct {
	syncPoints      atomic.Uint64
	globalSections  atomic.Uint64
	domainCPUs      atomic.Uint64
	barrierWaitNs   atomic.Uint64
	ipiRounds       atomic.Uint64
	ipiTargets      atomic.Uint64
	coalescedInvals atomic.Uint64
}

// SyncTelemetry is a snapshot (or delta) of the sync counters.
type SyncTelemetry struct {
	// SyncPoints is the number of sync-point sections granted during
	// parallel phases; GlobalSections counts the subset whose domain
	// was the whole machine.
	SyncPoints     uint64
	GlobalSections uint64

	// DomainCPUs is the sum of granted domain sizes; DomainCPUs /
	// SyncPoints is the mean number of CPUs a sync point stalled.
	DomainCPUs uint64

	// BarrierWaitNs is the total host (wall-clock) time CPU goroutines
	// spent parked waiting for a grant.
	BarrierWaitNs uint64

	// IPIRounds counts Machine.IPI calls with live targets; IPITargets
	// the total targets across them. CoalescedInvals is the number of
	// page invalidations folded into batched shootdown rounds by the
	// deferred-invalidation queues in vm and core.
	IPIRounds       uint64
	IPITargets      uint64
	CoalescedInvals uint64
}

// TelemetrySnapshot returns the current cumulative counter values.
func TelemetrySnapshot() SyncTelemetry {
	return SyncTelemetry{
		SyncPoints:      telemetry.syncPoints.Load(),
		GlobalSections:  telemetry.globalSections.Load(),
		DomainCPUs:      telemetry.domainCPUs.Load(),
		BarrierWaitNs:   telemetry.barrierWaitNs.Load(),
		IPIRounds:       telemetry.ipiRounds.Load(),
		IPITargets:      telemetry.ipiTargets.Load(),
		CoalescedInvals: telemetry.coalescedInvals.Load(),
	}
}

// Sub returns the delta t - prev, counter by counter.
func (t SyncTelemetry) Sub(prev SyncTelemetry) SyncTelemetry {
	return SyncTelemetry{
		SyncPoints:      t.SyncPoints - prev.SyncPoints,
		GlobalSections:  t.GlobalSections - prev.GlobalSections,
		DomainCPUs:      t.DomainCPUs - prev.DomainCPUs,
		BarrierWaitNs:   t.BarrierWaitNs - prev.BarrierWaitNs,
		IPIRounds:       t.IPIRounds - prev.IPIRounds,
		IPITargets:      t.IPITargets - prev.IPITargets,
		CoalescedInvals: t.CoalescedInvals - prev.CoalescedInvals,
	}
}

// AddCoalescedInvals records n page invalidations that were folded
// into one batched shootdown round. Called by the vm and core
// deferred-invalidation queues.
func AddCoalescedInvals(n int) {
	if n > 0 {
		telemetry.coalescedInvals.Add(uint64(n))
	}
}

// telAddGrant records one granted sync section.
func telAddGrant(domCPUs int, global bool, waitNs int64) {
	telemetry.syncPoints.Add(1)
	if global {
		telemetry.globalSections.Add(1)
	}
	telemetry.domainCPUs.Add(uint64(domCPUs))
	if waitNs > 0 {
		telemetry.barrierWaitNs.Add(uint64(waitNs))
	}
}

// telAddIPIRound records one IPI round with n targets.
func telAddIPIRound(n int) {
	telemetry.ipiRounds.Add(1)
	telemetry.ipiTargets.Add(uint64(n))
}
