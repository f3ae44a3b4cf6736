package cluster

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/preempt"
	"repro/internal/sim"
)

// TestChaosConservationAndDeterminism sweeps the chaos axes — every dispatch
// policy, all four preemption mechanisms, and fault-injection rates from
// none through aggressive (with stragglers mixed in on alternating trials)
// — on a 3-node fleet behind an active autoscaler, and checks, for each
// combination:
//
//   - conservation at attempt granularity: admitted = completed + lost +
//     in-flight for the fleet rollup, per node slot, and per service class,
//     with the per-node sums equal to the rollup (lost included);
//   - the fault injector actually fires at non-zero rates (kills and
//     matching restarts, lost work only when attempts were in flight);
//   - determinism: re-running the identical stream through a fresh cluster
//     (fresh dispatcher and autoscaler included) yields a deeply equal
//     Result — counters, sketches, node lifecycles, control-plane tallies.
func TestChaosConservationAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized chaos sweep in -short mode")
	}
	mechs := []struct {
		name string
		mk   func() core.Mechanism
	}{
		{"drain", func() core.Mechanism { return preempt.Drain{} }},
		{"context-switch", func() core.Mechanism { return preempt.ContextSwitch{} }},
		{"flush", func() core.Mechanism { return preempt.Flush{} }},
		{"adaptive", func() core.Mechanism { return preempt.NewAdaptive() }},
	}
	kinds := Kinds()
	killRates := []float64{0, 1500, 6000}

	tr := testTrace(t, 40000, 202)

	trial := 0
	for ki, kind := range kinds {
		for _, mech := range mechs {
			for _, killRate := range killRates {
				faults := &FaultSpec{KillRate: killRate, Downtime: 300 * sim.Microsecond}
				if trial%2 == 1 {
					faults.StragglerFrac = 0.5
					faults.SlowFactor = 3
				}
				mkRC := func() RunConfig {
					d, err := NewDispatcher(kind, uint64(ki+1))
					if err != nil {
						t.Fatal(err)
					}
					rc := testRunConfig(3, d)
					rc.Mechanism = mech.mk
					rc.Autoscale = &StepConfig{Min: 3, Max: 5, HighBacklog: 6, LowBacklog: 1}
					rc.Faults = faults
					return rc
				}

				res, err := Run(tr, mkRC())
				if err != nil {
					t.Fatalf("%s/%s/kill=%g: %v", kind, mech.name, killRate, err)
				}
				name := string(kind) + "/" + mech.name
				if res.Admitted != res.Completed+res.Lost+res.InFlight {
					t.Errorf("%s/kill=%g: conservation violated: %d != %d + %d + %d",
						name, killRate, res.Admitted, res.Completed, res.Lost, res.InFlight)
				}
				var adm, done, lost, missed int
				for i, n := range res.Nodes {
					adm += n.Admitted
					done += n.Completed
					lost += n.Lost
					missed += n.Missed
					if n.Admitted != n.Completed+n.Lost+n.InFlight {
						t.Errorf("%s/kill=%g: node %d conservation violated: %d != %d + %d + %d",
							name, killRate, i, n.Admitted, n.Completed, n.Lost, n.InFlight)
					}
					for ci := range n.Classes {
						c := &n.Classes[ci]
						if c.Admitted != c.Completed+c.Lost+c.InFlight() {
							t.Errorf("%s/kill=%g: node %d class %s conservation violated",
								name, killRate, i, c.Name)
						}
						if c.Latency.N() != uint64(c.Completed) {
							t.Errorf("%s/kill=%g: node %d class %s has %d latency samples for %d completions",
								name, killRate, i, c.Name, c.Latency.N(), c.Completed)
						}
					}
				}
				if adm != res.Admitted || done != res.Completed || lost != res.Lost || missed != res.Missed {
					t.Errorf("%s/kill=%g: node sums (%d/%d/%d/%d) disagree with rollup (%d/%d/%d/%d)",
						name, killRate, adm, done, lost, missed, res.Admitted, res.Completed, res.Lost, res.Missed)
				}
				for ci := range res.Classes {
					c := &res.Classes[ci]
					if c.Admitted != c.Completed+c.Lost+c.InFlight() {
						t.Errorf("%s/kill=%g: rollup class %s conservation violated", name, killRate, c.Name)
					}
				}
				if killRate == 0 {
					if res.Kills != 0 || res.Lost != 0 || res.LostWork != 0 {
						t.Errorf("%s: zero kill rate produced kills=%d lost=%d lostWork=%v",
							name, res.Kills, res.Lost, res.LostWork)
					}
				} else if killRate >= 6000 && res.Kills == 0 {
					t.Errorf("%s/kill=%g: aggressive fault rate injected no kills", name, killRate)
				}
				if res.Kills != res.Restarts && res.EndTime >= res.LostWork {
					// Every kill schedules a restart; the restart can only be
					// outstanding if the run ended inside a downtime window,
					// in which case the slot must still be Down.
					downs := 0
					for _, n := range res.Nodes {
						if n.State == NodeDown {
							downs++
						}
					}
					if res.Kills != res.Restarts+downs {
						t.Errorf("%s/kill=%g: kills=%d but restarts=%d with %d nodes down",
							name, killRate, res.Kills, res.Restarts, downs)
					}
				}

				again, err := Run(tr, mkRC())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, again) {
					t.Errorf("%s/kill=%g: re-run diverged", name, killRate)
				}
				trial++
			}
		}
	}
}

// TestChaosResilienceConservation extends the chaos sweep to the
// request-lifecycle manager: with timeouts, budgeted retries, hedging,
// breakers and shedding all armed at once behind an active autoscaler and
// fault injector, every dispatch policy must keep both ledgers —
// requests = completed + dropped + shed + in-flight and
// attempts admitted = completed + lost + timed out + cancelled + in-flight —
// at fleet, node and class granularity, account every hedge race exactly
// once (winner completed, loser cancelled), and replay byte-identically.
func TestChaosResilienceConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized chaos sweep in -short mode")
	}
	mechs := []struct {
		name string
		mk   func() core.Mechanism
	}{
		{"context-switch", func() core.Mechanism { return preempt.ContextSwitch{} }},
		{"drain", func() core.Mechanism { return preempt.Drain{} }},
	}
	killRates := []float64{0, 1500, 6000}
	tr := testTrace(t, 40000, 203)

	trial := 0
	for ki, kind := range Kinds() {
		for _, killRate := range killRates {
			mech := mechs[trial%len(mechs)]
			faults := &FaultSpec{KillRate: killRate, Downtime: 300 * sim.Microsecond}
			if trial%2 == 1 {
				faults.StragglerFrac = 0.5
				faults.SlowFactor = 3
			}
			mkRC := func() RunConfig {
				d, err := NewDispatcher(kind, uint64(ki+1))
				if err != nil {
					t.Fatal(err)
				}
				rc := testRunConfig(3, d)
				rc.Mechanism = mech.mk
				rc.Autoscale = &StepConfig{Min: 3, Max: 5, HighBacklog: 6, LowBacklog: 1}
				rc.Faults = faults
				rc.Resilience = resilienceSpec()
				return rc
			}

			res, err := Run(tr, mkRC())
			if err != nil {
				t.Fatalf("%s/%s/kill=%g: %v", kind, mech.name, killRate, err)
			}
			name := string(kind) + "/" + mech.name + "/res"
			checkResilienceConservation(t, name, res)
			if res.Requests != len(tr.Arrivals) {
				t.Errorf("%s/kill=%g: %d requests for %d arrivals",
					name, killRate, res.Requests, len(tr.Arrivals))
			}
			if killRate == 0 {
				if res.Kills != 0 || res.Lost != 0 {
					t.Errorf("%s: zero kill rate produced kills=%d lost=%d",
						name, res.Kills, res.Lost)
				}
			} else if killRate >= 6000 && res.Kills == 0 {
				t.Errorf("%s/kill=%g: aggressive fault rate injected no kills", name, killRate)
			}

			again, err := Run(tr, mkRC())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, again) {
				t.Errorf("%s/kill=%g: re-run diverged", name, killRate)
			}
			trial++
		}
	}
}
