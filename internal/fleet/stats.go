package fleet

// DeviceSnapshot is one device's state at snapshot time.
type DeviceSnapshot struct {
	Name         string `json:"name"`
	State        State  `json:"state"`
	CPU          bool   `json:"cpu,omitempty"`
	Killed       bool   `json:"killed,omitempty"`
	QueueDepth   int    `json:"queue_depth"`
	Completed    int64  `json:"completed"`
	Failed       int64  `json:"failed"`
	Steals       int64  `json:"steals"`
	Quarantines  int64  `json:"quarantines"`
	Readmissions int64  `json:"readmissions"`
	Probes       int64  `json:"probes"`
	Timeouts     int64  `json:"timeouts"`
	PairsDone    int64  `json:"pairs_done"`
	BusyNS       int64  `json:"busy_ns"`
	LastError    string `json:"last_error,omitempty"`
}

// Stats is a consistent point-in-time view of the fleet: every field —
// per-device and aggregate — is read under one hold of the scheduler lock,
// so the aggregates always equal the sums of the per-device rows even while
// devices are being quarantined, readmitted or killed concurrently.
type Stats struct {
	Devices []DeviceSnapshot `json:"devices"`

	Batches       int64 `json:"batches"`
	BatchesFailed int64 `json:"batches_failed"`
	Shards        int64 `json:"shards"`
	Requeues      int64 `json:"requeues"`
	Hedges        int64 `json:"hedges"`
	HedgeWaste    int64 `json:"hedge_waste"`
	Kills         int64 `json:"kills"`
	Revives       int64 `json:"revives"`

	// Sums of the per-device rows, computed under the same lock hold.
	Steals       int64 `json:"steals"`
	Quarantines  int64 `json:"quarantines"`
	Readmissions int64 `json:"readmissions"`
}

// Stats snapshots the fleet under a single lock hold.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Devices:       make([]DeviceSnapshot, 0, len(s.devices)),
		Batches:       s.batches,
		BatchesFailed: s.batchesFailed,
		Shards:        s.shards,
		Requeues:      s.requeues,
		Hedges:        s.hedges,
		HedgeWaste:    s.hedgeWaste,
		Kills:         s.kills,
		Revives:       s.revives,
	}
	for _, d := range s.devices {
		snap := DeviceSnapshot{
			Name:         d.name,
			State:        d.health.State,
			CPU:          d.cpu,
			Killed:       d.ks.Killed(),
			QueueDepth:   len(d.queue),
			Completed:    d.completed,
			Failed:       d.failed,
			Steals:       d.steals,
			Quarantines:  d.health.Quarantines,
			Readmissions: d.health.Readmissions,
			Probes:       d.probes,
			Timeouts:     d.timeouts,
			PairsDone:    d.pairsDone,
			BusyNS:       int64(d.busy),
			LastError:    d.lastErr,
		}
		st.Steals += snap.Steals
		st.Quarantines += snap.Quarantines
		st.Readmissions += snap.Readmissions
		st.Devices = append(st.Devices, snap)
	}
	return st
}

// Device returns the named device (for exec closures and tests) or nil.
func (s *Scheduler) Device(name string) *Device {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byName[name]
}

// DeviceNames lists the fleet members in configuration order.
func (s *Scheduler) DeviceNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, len(s.devices))
	for i, d := range s.devices {
		names[i] = d.name
	}
	return names
}
