package experiments

import (
	"fmt"

	"repro/internal/arrivals"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
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

// autoscaleStepConfig is the swept autoscaler policy: backlog-driven with a
// 50us tick and a full-range step, so a flash crowd is answered within one
// tick rather than ramped into over several cooldowns (a 250us/step-1 policy
// misses exactly the rt deadlines the scale-up is for). The long cooldown is
// scale-down hysteresis: a burst's short lulls dip below the low-water
// backlog, and draining capacity mid-burst strands the stragglers behind the
// dispatch-path latency floor every placement now pays.
func autoscaleStepConfig() cluster.StepConfig {
	return cluster.StepConfig{
		Interval:    50 * sim.Microsecond,
		Cooldown:    500 * sim.Microsecond,
		Min:         autoscaleMinNodes,
		Max:         autoscaleMaxNodes,
		Step:        autoscaleMaxNodes - autoscaleMinNodes,
		HighBacklog: 2,
		LowBacklog:  1,
	}
}

// AutoscaleRow is one cell of the elastic-fleet sweep: one arrival pattern
// served by one fleet configuration under one fault-injection rate.
type AutoscaleRow struct {
	// Pattern is the load shape label; Fleet the fleet configuration;
	// KillRate the injected node kills per simulated second.
	Pattern  string
	Fleet    string
	KillRate float64
	// Admitted/Completed/Lost are fleet-wide dispatch-attempt counts
	// (Admitted = Completed + Lost + in-flight).
	Admitted, Completed, Lost int
	// RTLatP99Us is the rt class's p99 completion latency in microseconds.
	RTLatP99Us float64
	// RTMissRate is the rt class's fleet-wide deadline-miss rate.
	RTMissRate float64
	// Goodput is fleet-wide SLO-compliant completions per simulated second.
	Goodput float64
	// NodeSeconds is the capacity the run consumed: total node uptime, the
	// cost side of the elasticity trade.
	NodeSeconds float64
	// ScaleUps/Drains/Kills count control-plane events.
	ScaleUps, Drains, Kills int
}

// AutoscaleResult is the data behind the elastic-fleet sweep.
type AutoscaleResult struct {
	// RatePerSec is the base offered load the phase factors multiply.
	RatePerSec float64
	Rows       []AutoscaleRow
}

// Row returns the cell for a pattern, fleet label and kill rate.
func (r *AutoscaleResult) Row(pattern, fleet string, killRate float64) (AutoscaleRow, bool) {
	for _, row := range r.Rows {
		if row.Pattern == pattern && row.Fleet == fleet && row.KillRate == killRate {
			return row, true
		}
	}
	return AutoscaleRow{}, false
}

// Table renders the sweep: per load shape, what the rt class's SLO costs in
// node-seconds on a fixed small fleet, a fixed peak-provisioned fleet and an
// autoscaled fleet — with and without node kills.
func (r *AutoscaleResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Elastic fleet sweep: %.0f req/s base (Poisson x phases, rt/batch classes) under PPQ+adaptive, jsq dispatch, pattern x fleet x kill rate", r.RatePerSec),
		Header: []string{"pattern", "fleet", "kills/s", "admitted", "done", "lost",
			"rt-p99(us)", "rt-miss", "goodput(req/s)", "node-ms", "ups", "drains", "kills"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Pattern,
			row.Fleet,
			fmt.Sprintf("%.0f", row.KillRate),
			fmt.Sprintf("%d", row.Admitted),
			fmt.Sprintf("%d", row.Completed),
			fmt.Sprintf("%d", row.Lost),
			fmt.Sprintf("%.1f", row.RTLatP99Us),
			fmt.Sprintf("%.3f", row.RTMissRate),
			fmt.Sprintf("%.0f", row.Goodput),
			fmt.Sprintf("%.3f", row.NodeSeconds*1e3),
			fmt.Sprintf("%d", row.ScaleUps),
			fmt.Sprintf("%d", row.Drains),
			fmt.Sprintf("%d", row.Kills),
		})
	}
	return t
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
	o = h.Opts
	// The peak load-sweep rate: the quiet phases fit on the minimum fleet,
	// and the flash peak (2.2x) overloads even the maximum for its duration
	// — the regime where elasticity has a decision to make.
	rate := peakLoadRate(o.Scale)

	type fleetConf struct {
		label string
		nodes int
		auto  bool
	}
	fleets := []fleetConf{
		{FleetStaticMin, autoscaleMinNodes, false},
		{FleetStaticMax, autoscaleMaxNodes, false},
		{FleetAutoscaled, autoscaleMinNodes, true},
	}

	type autoscaleJob struct {
		pattern  string
		tr       *trace.ArrivalTrace
		fleet    fleetConf
		killRate float64
	}
	var jobs []autoscaleJob
	for pi, p := range autoscalePatterns() {
		tr, err := h.poissonStream(rate, loadClasses(h.Suite), p.phases, autoscaleSeedTag, uint64(pi))
		if err != nil {
			return nil, err
		}
		for _, f := range fleets {
			for _, kr := range autoscaleKillRates {
				jobs = append(jobs, autoscaleJob{pattern: p.label, tr: tr, fleet: f, killRate: kr})
			}
		}
	}

	results, err := mapCells(o, len(jobs), func(i int) (*cluster.Result, error) {
		j := jobs[i]
		rc, err := h.fleetConfig(cluster.KindJSQ, adaptive)
		if err != nil {
			return nil, err
		}
		rc.Nodes = j.fleet.nodes
		if j.fleet.auto {
			asc, err := cluster.NewStepAutoscaler(autoscaleStepConfig())
			if err != nil {
				return nil, err
			}
			rc.Autoscale = asc
		}
		if j.killRate > 0 {
			rc.Faults = &cluster.FaultSpec{KillRate: j.killRate}
		}
		res, err := cluster.Run(j.tr, rc)
		if err != nil {
			return nil, fmt.Errorf("experiments: autoscale %s %s kill=%g: %w", j.pattern, j.fleet.label, j.killRate, err)
		}
		return res, nil
	}, func(i int, res *cluster.Result) string {
		j := jobs[i]
		return fmt.Sprintf("%-8s %-10s kill=%-5.0f done=%-5d lost=%-3d node-ms=%.3f",
			j.pattern, j.fleet.label, j.killRate, res.Completed, res.Lost, res.NodeSeconds*1e3)
	})
	if err != nil {
		return nil, err
	}

	out := &AutoscaleResult{RatePerSec: rate}
	for i, res := range results {
		j := jobs[i]
		rt := &res.Classes[0]
		out.Rows = append(out.Rows, AutoscaleRow{
			Pattern:     j.pattern,
			Fleet:       j.fleet.label,
			KillRate:    j.killRate,
			Admitted:    res.Admitted,
			Completed:   res.Completed,
			Lost:        res.Lost,
			RTLatP99Us:  rt.Latency.Quantile(0.99).Microseconds(),
			RTMissRate:  rt.MissRate(),
			Goodput:     res.Goodput,
			NodeSeconds: res.NodeSeconds,
			ScaleUps:    res.ScaleUps,
			Drains:      res.Drains,
			Kills:       res.Kills,
		})
	}
	return out, nil
}
