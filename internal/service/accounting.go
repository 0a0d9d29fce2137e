package service

import "sort"

// tenantLedger is one tenant's running account (fleet.mu-guarded).
// Volumes settle at job finalize, so the ledger always describes
// *finished* jobs; ServedCells additionally accrues at every commit so
// fair-share ordering sees in-flight service too.
type tenantLedger struct {
	Tenant    string
	Submitted int
	Admitted  int
	Rejected  int
	Completed int
	Failed    int
	Cancelled int

	// ServedCells accrues at commit time (fair-share key + attained
	// service); the volume fields settle per finished job.
	ServedCells     float64
	PlanVolume      float64
	ReplannedVolume float64
	DataShipped     float64
	CommittedVolume float64
	WastedData      float64
	ReclaimedCells  int
	RetriedChunks   int
	SpeculativeWins int
	DegradedEvents  int
}

// settle folds a finished job's ledger into the tenant account.
func (t *tenantLedger) settle(r *JobReport) {
	t.PlanVolume += r.PlanVolume
	t.ReplannedVolume += r.ReplannedVolume
	t.DataShipped += r.DataShipped
	t.CommittedVolume += r.CommittedVolume
	t.WastedData += r.WastedData
	t.ReclaimedCells += r.ReclaimedCells
	t.RetriedChunks += r.RetriedChunks
	t.SpeculativeWins += r.SpeculativeWins
	t.DegradedEvents += r.DegradedWorkers
}

// TenantAccount is a tenant ledger snapshot.
type TenantAccount struct {
	Tenant    string
	Submitted int
	Admitted  int
	Rejected  int
	Completed int
	Failed    int
	Cancelled int

	ServedCells     float64
	PlanVolume      float64
	ReplannedVolume float64
	DataShipped     float64
	CommittedVolume float64
	WastedData      float64
	ReclaimedCells  int
	RetriedChunks   int
	SpeculativeWins int
	DegradedEvents  int
}

// FleetReport is a whole-fleet accounting snapshot.
type FleetReport struct {
	Workers       int
	Policy        Policy
	ActiveJobs    int
	Submitted     int
	Rejected      int
	Completed     int
	Failed        int
	Cancelled     int
	Quarantined   []int
	Tenants       []TenantAccount
	UptimeSeconds float64
}

// Accounting returns the fleet snapshot, tenants sorted by name.
func (f *Fleet) Accounting() FleetReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	rep := FleetReport{
		Workers:       len(f.speeds),
		Policy:        f.cfg.Policy,
		ActiveJobs:    len(f.active),
		Submitted:     f.submitted,
		Rejected:      f.rejected,
		Completed:     f.completed,
		Failed:        f.failed,
		Cancelled:     f.cancelledJobs,
		UptimeSeconds: f.clock.Now(),
	}
	for w := range f.health {
		if f.health[w].quarantined {
			rep.Quarantined = append(rep.Quarantined, w)
		}
	}
	names := make([]string, 0, len(f.accounts))
	for name := range f.accounts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		led := f.accounts[name]
		rep.Tenants = append(rep.Tenants, TenantAccount{
			Tenant:    led.Tenant,
			Submitted: led.Submitted,
			Admitted:  led.Admitted,
			Rejected:  led.Rejected,
			Completed: led.Completed,
			Failed:    led.Failed,
			Cancelled: led.Cancelled,

			ServedCells:     led.ServedCells,
			PlanVolume:      led.PlanVolume,
			ReplannedVolume: led.ReplannedVolume,
			DataShipped:     led.DataShipped,
			CommittedVolume: led.CommittedVolume,
			WastedData:      led.WastedData,
			ReclaimedCells:  led.ReclaimedCells,
			RetriedChunks:   led.RetriedChunks,
			SpeculativeWins: led.SpeculativeWins,
			DegradedEvents:  led.DegradedEvents,
		})
	}
	return rep
}
