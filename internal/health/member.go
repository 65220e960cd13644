package health

import (
	"fmt"
	"time"
)

// State is a fault domain's position in the health machine:
//
//	Healthy ──failure──▶ Suspect ──more failures──▶ Quarantined
//	   ▲                    │                            │ cooldown
//	   │ success            ▼                            ▼
//	   └────────────── (back to Healthy)              Probing
//	   ▲                                                 │
//	   └──────── probe passes (readmission) ◀────────────┘
//	                                          probe fails → Quarantined
//
// The numeric values are exported as the cluster_peer_state gauge, so they
// must not change.
type State int

const (
	// Healthy members take work normally.
	Healthy State = iota
	// Suspect members still take work but are one failure streak away from
	// quarantine.
	Suspect
	// Quarantined members take no work until the probe cooldown elapses.
	Quarantined
	// Probing members are being health-checked for readmission; they take
	// no work until the probe passes.
	Probing
)

var stateNames = [...]string{"healthy", "suspect", "quarantined", "probing"}

func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// MarshalText renders the state name, so snapshots JSON-encode readably.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name.
func (s *State) UnmarshalText(b []byte) error {
	for i, n := range stateNames {
		if n == string(b) {
			*s = State(i)
			return nil
		}
	}
	return fmt.Errorf("health: unknown state %q", b)
}

// Policy holds the consecutive-failure thresholds of the machine.
type Policy struct {
	// SuspectAfter is the failure streak that marks a healthy member
	// suspect; QuarantineAfter the streak that quarantines it.
	SuspectAfter, QuarantineAfter int
}

// Member is one fault domain's health record. It is not safe for concurrent
// use: the owner guards it with the lock that also covers the owner's
// reaction to a transition (the cluster's membership lock), so a transition
// and its side effect are atomic.
type Member struct {
	State         State
	Consec        int       // consecutive failures
	QuarantinedAt time.Time // start of the current quarantine cooldown

	Quarantines  int64 // times the member left rotation
	Readmissions int64 // times it came back

	// OnChange, when non-nil, observes every state change (the owner
	// mirrors it into a gauge).
	OnChange func(to State)
}

// set moves the member to a new state, notifying OnChange.
func (m *Member) set(to State) {
	if m.State == to {
		return
	}
	m.State = to
	if m.OnChange != nil {
		m.OnChange(to)
	}
}

// InRotation reports whether the member takes work: healthy or suspect.
func (m *Member) InRotation() bool { return m.State == Healthy || m.State == Suspect }

// Failure records one failure at now and reports whether it took the member
// out of rotation. A failure while probing is a failed probe: back to
// quarantine with a fresh cooldown (not counted as a new quarantine).
func (m *Member) Failure(p Policy, now time.Time) (quarantined bool) {
	m.Consec++
	switch {
	case m.State == Probing:
		m.set(Quarantined)
		m.QuarantinedAt = now
	case m.InRotation() && m.Consec >= p.QuarantineAfter:
		m.set(Quarantined)
		m.QuarantinedAt = now
		m.Quarantines++
		return true
	case m.State == Healthy && m.Consec >= p.SuspectAfter:
		m.set(Suspect)
	}
	return false
}

// Success records one success and reports whether it readmitted the member.
// A suspect member is healthy again; a quarantined or probing one is
// readmitted.
func (m *Member) Success() (readmitted bool) {
	m.Consec = 0
	switch m.State {
	case Suspect:
		m.set(Healthy)
	case Quarantined, Probing:
		m.set(Healthy)
		m.Readmissions++
		return true
	}
	return false
}

// StartProbe moves a quarantined member whose cooldown has elapsed at now to
// Probing and reports whether it did.
func (m *Member) StartProbe(cooldown time.Duration, now time.Time) bool {
	if m.State != Quarantined || now.Sub(m.QuarantinedAt) < cooldown {
		return false
	}
	m.set(Probing)
	return true
}
