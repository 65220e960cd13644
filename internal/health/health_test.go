package health

import (
	"encoding/json"
	"slices"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

// step is one action against a breaker, followed by a check of its state.
// Allow steps: "pass" (allowed, no probe), "probe" (allowed with the probe
// slot), "refuse" (short-circuited). Done steps: "ok", "fail", "abandon",
// reporting with the step's probe flag. "cool" advances the clock past the
// cooldown.
type step struct {
	op    string
	probe bool
	state BreakerState
}

// TestBreaker walks the breaker through each transition on a fake clock.
// The threshold is 2 and the cooldown 100ms throughout.
func TestBreaker(t *testing.T) {
	trip := []step{
		{"pass", false, BreakerClosed}, {"fail", false, BreakerClosed},
		{"pass", false, BreakerClosed}, {"fail", false, BreakerOpen},
	}
	cases := []struct {
		name                  string
		steps                 []step
		trips, shorts, probes int64
	}{
		{
			name: "success resets the streak",
			steps: []step{
				{"pass", false, BreakerClosed}, {"fail", false, BreakerClosed},
				{"pass", false, BreakerClosed}, {"ok", false, BreakerClosed},
				{"pass", false, BreakerClosed}, {"fail", false, BreakerClosed},
			},
		},
		{
			name:  "trips at threshold and short-circuits while open",
			steps: append(slices.Clone(trip), step{"refuse", false, BreakerOpen}, step{"refuse", false, BreakerOpen}),
			trips: 1, shorts: 2,
		},
		{
			name: "one half-open probe at a time",
			steps: append(slices.Clone(trip), step{"cool", false, BreakerOpen},
				step{"probe", false, BreakerHalfOpen}, step{"refuse", false, BreakerHalfOpen}),
			trips: 1, shorts: 1, probes: 1,
		},
		{
			name: "probe success closes",
			steps: append(slices.Clone(trip), step{"cool", false, BreakerOpen},
				step{"probe", false, BreakerHalfOpen}, step{"ok", true, BreakerClosed},
				step{"pass", false, BreakerClosed}),
			trips: 1, probes: 1,
		},
		{
			name: "probe failure re-opens for a fresh cooldown",
			steps: append(slices.Clone(trip), step{"cool", false, BreakerOpen},
				step{"probe", false, BreakerHalfOpen}, step{"fail", true, BreakerOpen},
				step{"refuse", false, BreakerOpen}, step{"cool", false, BreakerOpen},
				step{"probe", false, BreakerHalfOpen}),
			trips: 2, shorts: 1, probes: 2,
		},
		{
			name: "abandoned probe frees the slot without deciding",
			steps: append(slices.Clone(trip), step{"cool", false, BreakerOpen},
				step{"probe", false, BreakerHalfOpen}, step{"abandon", true, BreakerHalfOpen},
				step{"probe", false, BreakerHalfOpen}),
			trips: 1, probes: 2,
		},
		{
			name: "straggler success while open does not close",
			steps: append(slices.Clone(trip), step{"ok", false, BreakerOpen},
				step{"refuse", false, BreakerOpen}),
			trips: 1, shorts: 1,
		},
		{
			name: "straggler outcomes while half-open leave the probe in charge",
			steps: append(slices.Clone(trip), step{"cool", false, BreakerOpen},
				step{"probe", false, BreakerHalfOpen}, step{"ok", false, BreakerHalfOpen},
				step{"fail", false, BreakerHalfOpen}, step{"refuse", false, BreakerHalfOpen},
				step{"ok", true, BreakerClosed}),
			trips: 1, shorts: 1, probes: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(0, 0)}
			b := NewBreaker(2, 100*time.Millisecond, clk.now, nil)
			for i, s := range tc.steps {
				switch s.op {
				case "pass", "probe", "refuse":
					allowed, probe := b.Allow()
					want := map[string][2]bool{"pass": {true, false}, "probe": {true, true}, "refuse": {false, false}}[s.op]
					if allowed != want[0] || probe != want[1] {
						t.Fatalf("step %d %s: Allow() = %v, %v", i, s.op, allowed, probe)
					}
				case "ok":
					b.Done(Succeeded, s.probe)
				case "fail":
					b.Done(Failed, s.probe)
				case "abandon":
					b.Done(Abandoned, s.probe)
				case "cool":
					clk.t = clk.t.Add(101 * time.Millisecond)
				default:
					t.Fatalf("unknown op %q", s.op)
				}
				if got := b.Stats().State; got != s.state {
					t.Fatalf("step %d %s: state %v, want %v", i, s.op, got, s.state)
				}
			}
			st := b.Stats()
			if st.Trips != tc.trips || st.ShortCircuits != tc.shorts || st.Probes != tc.probes {
				t.Fatalf("trips/shorts/probes = %d/%d/%d, want %d/%d/%d",
					st.Trips, st.ShortCircuits, st.Probes, tc.trips, tc.shorts, tc.probes)
			}
		})
	}
}

// TestBreakerTransitionHook checks the hook sees each state change once.
func TestBreakerTransitionHook(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var seen []BreakerState
	b := NewBreaker(1, time.Second, clk.now, func(to BreakerState) { seen = append(seen, to) })
	b.Allow()
	b.Done(Failed, false)
	b.Allow() // refused: no transition
	clk.t = clk.t.Add(2 * time.Second)
	_, probe := b.Allow()
	b.Done(Succeeded, probe)
	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if !slices.Equal(seen, want) {
		t.Fatalf("transitions %v, want %v", seen, want)
	}
}

func TestNilBreakerAlwaysAllows(t *testing.T) {
	var b *Breaker
	if ok, probe := b.Allow(); !ok || probe {
		t.Fatalf("nil breaker Allow() = %v, %v", ok, probe)
	}
	b.Done(Failed, false) // must not panic
	if st := b.Stats(); st != (BreakerStats{}) {
		t.Fatalf("nil breaker stats: %+v", st)
	}
}

// TestMember walks the consecutive-failure machine with SuspectAfter 1 and
// QuarantineAfter 3, including both readmission rules.
func TestMember(t *testing.T) {
	p := Policy{SuspectAfter: 1, QuarantineAfter: 3}
	t0 := time.Unix(0, 0)
	var gauge []State
	m := Member{OnChange: func(to State) { gauge = append(gauge, to) }}

	if m.Failure(p, t0) || m.State != Suspect {
		t.Fatalf("first failure: %+v", m)
	}
	if m.Success(false) || m.State != Healthy || m.Consec != 0 {
		t.Fatalf("success while suspect: %+v", m)
	}
	m.Failure(p, t0)
	m.Failure(p, t0)
	if !m.Failure(p, t0) || m.State != Quarantined || m.Quarantines != 1 || m.InRotation() {
		t.Fatalf("third failure did not quarantine: %+v", m)
	}
	// Further failures and a device-style success keep it out.
	if m.Failure(p, t0) || m.Success(false) || m.State != Quarantined {
		t.Fatalf("quarantined member moved: %+v", m)
	}
	if m.StartProbe(time.Second, t0.Add(time.Millisecond)) {
		t.Fatal("probe started before the cooldown")
	}
	if !m.StartProbe(time.Second, t0.Add(time.Second)) || m.State != Probing {
		t.Fatalf("probe not started after the cooldown: %+v", m)
	}
	// A failed probe re-quarantines with a fresh cooldown, uncounted.
	t1 := t0.Add(2 * time.Second)
	if m.Failure(p, t1) || m.State != Quarantined || m.QuarantinedAt != t1 || m.Quarantines != 1 {
		t.Fatalf("failed probe: %+v", m)
	}
	m.StartProbe(time.Second, t1.Add(time.Second))
	if !m.Success(true) || m.State != Healthy || m.Readmissions != 1 {
		t.Fatalf("passed probe did not readmit: %+v", m)
	}
	// A peer-style success readmits straight from quarantine.
	for range 3 {
		m.Failure(p, t1)
	}
	if !m.Success(true) || m.State != Healthy || m.Readmissions != 2 {
		t.Fatalf("success did not readmit: %+v", m)
	}
	m.MarkSuspect()
	if m.State != Suspect {
		t.Fatalf("MarkSuspect: %v", m.State)
	}
	want := []State{Suspect, Healthy, Suspect, Quarantined, Probing, Quarantined, Probing,
		Healthy, Suspect, Quarantined, Healthy, Suspect}
	if !slices.Equal(gauge, want) {
		t.Fatalf("OnChange saw %v, want %v", gauge, want)
	}
}

// TestTextCodecs pins the wire names both state types marshal to.
func TestTextCodecs(t *testing.T) {
	b, err := json.Marshal(struct {
		S  []State
		BS []BreakerState
	}{[]State{Healthy, Suspect, Quarantined, Probing}, []BreakerState{BreakerClosed, BreakerOpen, BreakerHalfOpen}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"S":["healthy","suspect","quarantined","probing"],"BS":["closed","open","half-open"]}`
	if string(b) != want {
		t.Fatalf("got %s, want %s", b, want)
	}
	var s State
	if err := json.Unmarshal([]byte(`"probing"`), &s); err != nil || s != Probing {
		t.Fatalf("State round trip: %v %v", s, err)
	}
	var bs BreakerState
	if err := json.Unmarshal([]byte(`"half-open"`), &bs); err != nil || bs != BreakerHalfOpen {
		t.Fatalf("BreakerState round trip: %v %v", bs, err)
	}
	if json.Unmarshal([]byte(`"bogus"`), &s) == nil || json.Unmarshal([]byte(`"bogus"`), &bs) == nil {
		t.Fatal("unknown names accepted")
	}
	if State(9).String() != "state(9)" || BreakerState(9).String() != "state(9)" {
		t.Fatal("out-of-range String")
	}
}
