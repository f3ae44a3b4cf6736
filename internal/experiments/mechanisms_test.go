package experiments

import (
	"strings"
	"sync"
	"testing"
)

// mechGrid computes the quickOpts mechanisms grid once and shares it across
// the read-only assertions below (the grid is 25 simulations).
var mechGrid = sync.OnceValues(func() (*MechanismsResult, error) {
	return RunMechanisms(quickOpts())
})

func TestRunMechanismsGridShape(t *testing.T) {
	r, err := mechGrid()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(mechPairings) * len(MechLabels); len(r.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(r.Rows), want)
	}
	for _, pair := range mechPairings {
		pairing := pair[0] + "+" + pair[1]
		for _, mech := range MechLabels {
			row, ok := find(r.Rows, func(x MechanismsRow) bool {
				return x.Pairing == pairing && x.Mechanism == mech
			})
			if !ok {
				t.Errorf("missing cell %s/%s", pairing, mech)
				continue
			}
			if row.ANTT <= 0 {
				t.Errorf("%s/%s ANTT = %v", pairing, mech, row.ANTT)
			}
			if row.Preemptions < 0 || row.MeanLatencyUs < 0 || row.OverheadUs < 0 {
				t.Errorf("%s/%s negative metric: %+v", pairing, mech, row)
			}
		}
	}
	if tab := r.Table(); len(tab.Rows) != len(r.Rows) {
		t.Errorf("table rows = %d", len(tab.Rows))
	}
}

// TestMechanismsAcceptance pins the headline property of the adaptive
// mechanism: on at least one pairing with real preemptions its mean
// preemption latency is no worse than the context switch's while its
// overhead is no worse than draining's (draining's overhead is zero, so the
// adaptive mechanism must have drained its way through that pairing).
func TestMechanismsAcceptance(t *testing.T) {
	r, err := mechGrid()
	if err != nil {
		t.Fatal(err)
	}
	found := ""
	for _, pair := range mechPairings {
		pairing := pair[0] + "+" + pair[1]
		ad, okA := find(r.Rows, func(x MechanismsRow) bool {
			return x.Pairing == pairing && x.Mechanism == MechAdaptive
		})
		cs, okC := find(r.Rows, func(x MechanismsRow) bool {
			return x.Pairing == pairing && x.Mechanism == MechContextSwitch
		})
		dr, okD := find(r.Rows, func(x MechanismsRow) bool {
			return x.Pairing == pairing && x.Mechanism == MechDraining
		})
		if !okA || !okC || !okD || ad.Preemptions == 0 || cs.Preemptions == 0 {
			continue
		}
		if ad.MeanLatencyUs <= cs.MeanLatencyUs && ad.OverheadUs <= dr.OverheadUs {
			found = pairing
			break
		}
	}
	if found == "" {
		t.Errorf("no pairing where adaptive latency <= context switch and overhead <= draining:\n%s",
			r.Table().Render())
	}
}

// TestMechanismsDrainingHasNoOverhead pins the cost structure: draining
// never moves context or wastes work, and the flush mechanism on the
// non-idempotent pairing degenerates to the context switch (fallback path).
func TestMechanismsDrainingHasNoOverhead(t *testing.T) {
	r, err := mechGrid()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Mechanism == MechDraining && row.OverheadUs != 0 {
			t.Errorf("%s: draining overhead %.2fus, want 0", row.Pairing, row.OverheadUs)
		}
	}
	// sad+tpacf's victim kernel (genhists) is atomic, so flush must behave
	// exactly like the context switch there.
	fl, _ := find(r.Rows, func(x MechanismsRow) bool {
		return x.Pairing == "sad+tpacf" && x.Mechanism == MechFlush
	})
	cs, _ := find(r.Rows, func(x MechanismsRow) bool {
		return x.Pairing == "sad+tpacf" && x.Mechanism == MechContextSwitch
	})
	if fl.Preemptions != cs.Preemptions || fl.MeanLatencyUs != cs.MeanLatencyUs || fl.ANTT != cs.ANTT {
		t.Errorf("flush fallback diverged from context switch on atomic victim:\nflush=%+v\ncs=%+v", fl, cs)
	}
}

// TestMechanismsGridDeterministicAcrossWorkerCounts extends the repo's
// byte-identical guarantee to the mechanisms grid (including the adaptive
// mechanism's estimator state, which lives entirely inside each simulation).
func TestMechanismsGridDeterministicAcrossWorkerCounts(t *testing.T) {
	o := quickOpts()
	o.Workers = 1
	r, err := RunMechanisms(o)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Table().Render()
	if !strings.Contains(want, MechAdaptive) {
		t.Fatalf("table missing adaptive rows:\n%s", want)
	}
	for _, workers := range []int{2, 8} {
		o.Workers = workers
		r, err := RunMechanisms(o)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Table().Render(); got != want {
			t.Errorf("workers=%d produced a different mechanisms table:\n--- got ---\n%s\n--- want ---\n%s",
				workers, got, want)
		}
	}
}
