package experiments

import (
	"fmt"

	"repro/internal/arrivals"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// autoscaleSeedTag namespaces the elastic-fleet sweep's arrival streams:
// one stream per arrival pattern, replayed identically by every fleet and
// fault cell of that pattern.
const autoscaleSeedTag = 0xE1A5

// The elastic sweep's fleet bounds: the static baselines are the two
// extremes, and the step autoscaler moves between them.
const (
	autoscaleMinNodes = 2
	autoscaleMaxNodes = 4
)

// autoscaleKillRates are the swept fault-injection rates in node kills per
// simulated second; 800/s expects ~4 kills over the 5ms injection window.
var autoscaleKillRates = []float64{0, 800}

// arrivalPattern is one time-varying offered-load shape: phase factors
// multiplying the base rate across the injection window.
type arrivalPattern struct {
	label  string
	phases []arrivals.Phase
}

// autoscalePatterns returns the swept load shapes over five equal segments
// of the injection window: a diurnal ramp (gentle rise to the base rate and
// back) and a flash crowd (quiet baseline with one 2.2x burst in the
// middle). Both offer roughly 0.7x the base rate on average, so the shapes
// differ through burstiness, not total work.
func autoscalePatterns() []arrivalPattern {
	seg := loadHorizon / 5
	return []arrivalPattern{
		{"diurnal", []arrivals.Phase{
			{RateFactor: 0.35, Duration: seg},
			{RateFactor: 0.65, Duration: seg},
			{RateFactor: 1.0, Duration: seg},
			{RateFactor: 0.65, Duration: seg},
			{RateFactor: 0.35, Duration: seg},
		}},
		{"flash", []arrivals.Phase{
			{RateFactor: 0.3, Duration: seg},
			{RateFactor: 0.3, Duration: seg},
			{RateFactor: 2.2, Duration: seg},
			{RateFactor: 0.3, Duration: seg},
			{RateFactor: 0.3, Duration: seg},
		}},
	}
}

// Elastic-fleet labels of the sweep's fleet axis.
var (
	// FleetStaticMin is a fixed fleet at the autoscaler's lower bound.
	FleetStaticMin = fmt.Sprintf("static-%d", autoscaleMinNodes)
	// FleetStaticMax is a fixed fleet provisioned for the peak.
	FleetStaticMax = fmt.Sprintf("static-%d", autoscaleMaxNodes)
	// FleetAutoscaled starts at the lower bound and lets the step
	// autoscaler chase the backlog.
	FleetAutoscaled = fmt.Sprintf("step-%d:%d", autoscaleMinNodes, autoscaleMaxNodes)
)

// autoscaleStep is the swept autoscaler policy: backlog-driven with a
// 50us tick and a full-range step, so a flash crowd is answered within one
// tick rather than ramped into over several cooldowns (a 250us/step-1 policy
// misses exactly the rt deadlines the scale-up is for). The long cooldown is
// scale-down hysteresis: a burst's short lulls dip below the low-water
// backlog, and draining capacity mid-burst strands the stragglers behind the
// dispatch-path latency floor every placement now pays.
var autoscaleStep = cluster.StepConfig{
	Interval:    50 * sim.Microsecond,
	Cooldown:    500 * sim.Microsecond,
	Min:         autoscaleMinNodes,
	Max:         autoscaleMaxNodes,
	Step:        autoscaleMaxNodes - autoscaleMinNodes,
	HighBacklog: 2,
	LowBacklog:  1,
}

// AutoscaleResult is the data behind the elastic-fleet sweep. A row's labels
// are the arrival pattern, the fleet configuration and the injected node
// kills per simulated second.
type AutoscaleResult struct {
	// RatePerSec is the base offered load the phase factors multiply.
	RatePerSec float64
	Rows       []FleetRow
}

// Table renders the sweep: per load shape, what the rt class's SLO costs in
// node-seconds on a fixed small fleet, a fixed peak-provisioned fleet and an
// autoscaled fleet — with and without node kills. Admitted, done and lost
// count dispatch attempts (admitted = done + lost + in-flight); node-ms is
// the capacity the run consumed, the cost side of the elasticity trade.
func (r *AutoscaleResult) Table() *Table {
	return fleetTable(
		fmt.Sprintf("Elastic fleet sweep: %.0f req/s base (Poisson x phases, rt/batch classes) under PPQ+adaptive, jsq dispatch, pattern x fleet x kill rate", r.RatePerSec),
		[]string{"pattern", "fleet", "kills/s", "admitted", "done", "lost",
			"rt-p99(us)", "rt-miss", "goodput(req/s)", "node-ms", "ups", "drains", "kills"},
		r.Rows, func(res *cluster.Result) []string {
			rt := &res.Classes[0]
			return []string{
				fmt.Sprintf("%d", res.Admitted),
				fmt.Sprintf("%d", res.Completed),
				fmt.Sprintf("%d", res.Lost),
				fmt.Sprintf("%.1f", rt.Latency.Quantile(0.99).Microseconds()),
				fmt.Sprintf("%.3f", rt.MissRate()),
				fmt.Sprintf("%.0f", res.Goodput),
				fmt.Sprintf("%.3f", res.NodeSeconds*1e3),
				fmt.Sprintf("%d", res.ScaleUps),
				fmt.Sprintf("%d", res.Drains),
				fmt.Sprintf("%d", res.Kills),
			}
		})
}

// RunAutoscale sweeps arrival pattern x fleet configuration x fault rate on
// phase-modulated Poisson streams. Every cell of one pattern replays the
// identical arrival trace, so within a pattern the rows differ exclusively
// through fleet sizing and injected faults; the autoscaled rows pin the
// elasticity trade (SLO attainment vs node-seconds) against the static
// extremes. Cells run on the shared concurrent runner and aggregate in
// submission order: the table is byte-identical at any worker count.
func RunAutoscale(o Options) (*AutoscaleResult, error) {
	h := NewHarness(o)
	// The peak load-sweep rate: the quiet phases fit on the minimum fleet,
	// and the flash peak (2.2x) overloads even the maximum for its duration
	// — the regime where elasticity has a decision to make.
	rate := peakLoadRate(h.Opts.Scale)

	fleets := []struct {
		label string
		nodes int
		auto  bool
	}{
		{FleetStaticMin, autoscaleMinNodes, false},
		{FleetStaticMax, autoscaleMaxNodes, false},
		{FleetAutoscaled, autoscaleMinNodes, true},
	}
	var cells []fleetCell
	for pi, p := range autoscalePatterns() {
		tr, err := h.poissonStream(rate, loadClasses(h.Suite), p.phases, autoscaleSeedTag, uint64(pi))
		if err != nil {
			return nil, err
		}
		for _, f := range fleets {
			for _, kr := range autoscaleKillRates {
				rc, err := h.fleetConfig(cluster.KindJSQ, adaptive)
				if err != nil {
					return nil, err
				}
				rc.Nodes = f.nodes
				if f.auto {
					rc.Autoscale = &autoscaleStep
				}
				if kr > 0 {
					rc.Faults = &cluster.FaultSpec{KillRate: kr}
				}
				cells = append(cells, fleetCell{[]string{p.label, f.label, fmt.Sprintf("%.0f", kr)}, tr, rc})
			}
		}
	}
	rows, err := h.runFleet("autoscale", cells)
	if err != nil {
		return nil, err
	}
	return &AutoscaleResult{RatePerSec: rate, Rows: rows}, nil
}
