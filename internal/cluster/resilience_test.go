package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/resilience"
	"repro/internal/sim"
)

// resilienceSpec is the test default: tight attempt timeouts, budgeted
// backoff retries, hedging, breakers and shedding all armed at once.
func resilienceSpec() *resilience.Spec {
	return &resilience.Spec{
		Timeout: 400 * sim.Microsecond,
		Retry: &resilience.RetryPolicy{
			MaxAttempts: 4,
			BackoffBase: 20 * sim.Microsecond,
			Budget:      &resilience.Budget{Tokens: 20, Ratio: 0.2},
		},
		Hedge:   &resilience.HedgePolicy{Quantile: 0.95, MinObs: 16},
		Breaker: &resilience.BreakerPolicy{Window: 500 * sim.Microsecond, ErrorRate: 0.5, MinVolume: 8},
		Shed:    &resilience.ShedPolicy{PerNode: 64, Queue: 32},
	}
}

// checkResilienceConservation asserts the request- and attempt-level
// conservation identities the lifecycle manager must keep, at fleet, node and
// class granularity.
func checkResilienceConservation(t *testing.T, name string, res *Result) {
	t.Helper()
	if res.Requests != res.ReqCompleted+res.Dropped+res.Shed+res.ReqInFlight {
		t.Errorf("%s: request conservation violated: %d != %d + %d + %d + %d",
			name, res.Requests, res.ReqCompleted, res.Dropped, res.Shed, res.ReqInFlight)
	}
	if res.Admitted != res.Completed+res.Lost+res.TimedOut+res.Canceled+res.InFlight {
		t.Errorf("%s: attempt conservation violated: %d != %d + %d + %d + %d + %d",
			name, res.Admitted, res.Completed, res.Lost, res.TimedOut, res.Canceled, res.InFlight)
	}
	var adm, done, lost, to, ca, retried, hedged, dropped, inflight int
	for i, n := range res.Nodes {
		var nto, nca int
		for ci := range n.Classes {
			cl := &n.Classes[ci]
			if cl.Shed != 0 {
				t.Errorf("%s: node %d class %s carries shed count %d (shed is fleet-level)",
					name, i, cl.Name, cl.Shed)
			}
			if cl.Admitted != cl.Completed+cl.Lost+cl.TimedOut+cl.Canceled+cl.InFlight() {
				t.Errorf("%s: node %d class %s attempt conservation violated", name, i, cl.Name)
			}
			if cl.Latency.N() != uint64(cl.Completed) {
				t.Errorf("%s: node %d class %s has %d latency samples for %d completions",
					name, i, cl.Name, cl.Latency.N(), cl.Completed)
			}
			nto += cl.TimedOut
			nca += cl.Canceled
		}
		if n.Admitted != n.Completed+n.Lost+nto+nca+n.InFlight {
			t.Errorf("%s: node %d attempt conservation violated: %d != %d+%d+%d+%d+%d",
				name, i, n.Admitted, n.Completed, n.Lost, nto, nca, n.InFlight)
		}
		adm += n.Admitted
		done += n.Completed
		lost += n.Lost
		to += nto
		ca += nca
		inflight += n.InFlight
	}
	for ci := range res.Classes {
		cl := &res.Classes[ci]
		if cl.Admitted != cl.Completed+cl.Lost+cl.TimedOut+cl.Canceled+cl.InFlight() {
			t.Errorf("%s: rollup class %s attempt conservation violated", name, cl.Name)
		}
		retried += cl.Retried
		hedged += cl.Hedged
		dropped += cl.Dropped
	}
	if adm != res.Admitted || done != res.Completed || lost != res.Lost ||
		to != res.TimedOut || ca != res.Canceled || inflight != res.InFlight {
		t.Errorf("%s: node sums (%d/%d/%d/%d/%d/%d) disagree with rollup (%d/%d/%d/%d/%d/%d)",
			name, adm, done, lost, to, ca, inflight,
			res.Admitted, res.Completed, res.Lost, res.TimedOut, res.Canceled, res.InFlight)
	}
	if retried != res.Retries {
		t.Errorf("%s: per-class retried sum %d != result retries %d", name, retried, res.Retries)
	}
	if hedged != res.Hedges {
		t.Errorf("%s: per-class hedged sum %d != result hedges %d", name, hedged, res.Hedges)
	}
	if dropped != res.Dropped {
		t.Errorf("%s: per-class dropped sum %d != result dropped %d", name, dropped, res.Dropped)
	}
	// Every hedge race resolves exactly once: a hedge attempt either wins
	// (completed), is cancelled as the loser (or cancels the primary), times
	// out, is lost to a kill, or is still racing at the end — so cancels can
	// never exceed the hedges that could have raced.
	if res.Canceled > res.Hedges {
		t.Errorf("%s: %d cancelled attempts exceed %d hedges", name, res.Canceled, res.Hedges)
	}
	// Exactly one winner per completed request: completions are winners only
	// (a ghost or cancelled loser never reaches the completion counters), so
	// attempt completions and request completions must agree exactly.
	if res.Completed != res.ReqCompleted {
		t.Errorf("%s: %d attempt completions for %d completed requests — a hedge race paid twice",
			name, res.Completed, res.ReqCompleted)
	}
}

// TestResilienceLifecycleUnderChaos runs the fully armed lifecycle manager
// (timeouts, budgeted retries, hedging, breakers, shedding) against an
// aggressive fault plan on every dispatch policy and checks conservation plus
// rerun determinism.
func TestResilienceLifecycleUnderChaos(t *testing.T) {
	tr := testTrace(t, 40000, 301)
	for _, kind := range Kinds() {
		mkRC := func() RunConfig {
			d, err := NewDispatcher(kind, 9)
			if err != nil {
				t.Fatal(err)
			}
			rc := testRunConfig(3, d)
			rc.Faults = &FaultSpec{KillRate: 4000, Downtime: 300 * sim.Microsecond}
			rc.Resilience = resilienceSpec()
			return rc
		}
		res, err := Run(tr, mkRC())
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		name := string(kind)
		checkResilienceConservation(t, name, res)
		if res.Requests != len(tr.Arrivals) {
			t.Errorf("%s: %d requests for %d arrivals", name, res.Requests, len(tr.Arrivals))
		}
		if res.Kills > 0 && res.Lost > 0 && res.Retries == 0 {
			t.Errorf("%s: kills lost attempts but nothing retried", name)
		}

		again, err := Run(tr, mkRC())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Errorf("%s: re-run diverged", name)
		}
	}
}

// TestResilienceTimeoutsDropWithoutRetry pins the no-retry mode: with a tight
// attempt timeout and no retry policy, every timed-out attempt drops its
// request, nothing is retried, and the ledger still balances.
func TestResilienceTimeoutsDropWithoutRetry(t *testing.T) {
	tr := testTrace(t, 60000, 302)
	rc := testRunConfig(2, NewJSQ())
	rc.Resilience = &resilience.Spec{Timeout: 150 * sim.Microsecond}
	res, err := Run(tr, rc)
	if err != nil {
		t.Fatal(err)
	}
	checkResilienceConservation(t, "no-retry", res)
	if res.TimedOut == 0 {
		t.Fatal("tight timeout produced no timeouts")
	}
	if res.Retries != 0 || res.Hedges != 0 {
		t.Fatalf("no-retry spec retried %d / hedged %d", res.Retries, res.Hedges)
	}
	if res.Dropped != res.TimedOut {
		t.Errorf("without retries every timeout should drop its request: dropped %d, timed out %d",
			res.Dropped, res.TimedOut)
	}
	if res.ReqCompleted+res.Dropped != res.Requests {
		t.Errorf("unresolved requests without shedding or faults: %d + %d != %d",
			res.ReqCompleted, res.Dropped, res.Requests)
	}
}

// TestResilienceRetryRecoversKillLosses pins that the retry policy converts
// would-be drops into completions: under node kills with a generous timeout,
// a lost attempt drops its request without a retry policy and is recovered
// with one.
func TestResilienceRetryRecoversKillLosses(t *testing.T) {
	tr := testTrace(t, 30000, 303)
	run := func(retry *resilience.RetryPolicy) *Result {
		rc := testRunConfig(3, NewJSQ())
		rc.Faults = &FaultSpec{KillRate: 3000, Downtime: 200 * sim.Microsecond}
		rc.Resilience = &resilience.Spec{Timeout: 10 * sim.Millisecond, Retry: retry}
		res, err := Run(tr, rc)
		if err != nil {
			t.Fatal(err)
		}
		checkResilienceConservation(t, "retry-compare", res)
		return res
	}
	none := run(nil)
	with := run(&resilience.RetryPolicy{MaxAttempts: 5, BackoffBase: 10 * sim.Microsecond})
	if none.Lost == 0 {
		t.Skip("kill plan lost no attempts at this load")
	}
	if none.Dropped == 0 {
		t.Fatal("kill losses without a retry policy dropped nothing")
	}
	if with.Retries == 0 {
		t.Fatal("retry policy issued no retries")
	}
	if with.ReqCompleted <= none.ReqCompleted {
		t.Errorf("retries did not improve completions: %d with vs %d without",
			with.ReqCompleted, none.ReqCompleted)
	}
	if with.Dropped >= none.Dropped {
		t.Errorf("retries did not reduce drops: %d with vs %d without", with.Dropped, none.Dropped)
	}
}

// TestResilienceBudgetBoundsRetries pins the token bucket: a tiny budget
// must cap retry volume well below the unbudgeted run's and turn the excess
// into drops.
func TestResilienceBudgetBoundsRetries(t *testing.T) {
	tr := testTrace(t, 60000, 304)
	run := func(budget *resilience.Budget) *Result {
		rc := testRunConfig(2, NewJSQ())
		rc.Resilience = &resilience.Spec{
			Timeout: 150 * sim.Microsecond,
			Retry: &resilience.RetryPolicy{
				MaxAttempts: 6,
				BackoffBase: 5 * sim.Microsecond,
				Budget:      budget,
			},
		}
		res, err := Run(tr, rc)
		if err != nil {
			t.Fatal(err)
		}
		checkResilienceConservation(t, "budget", res)
		return res
	}
	unbounded := run(nil)
	tight := run(&resilience.Budget{Tokens: 4, Ratio: 0.01})
	if unbounded.Retries == 0 {
		t.Skip("no retry pressure at this load")
	}
	// The tight budget allows at most Tokens + Ratio×fresh-launches retries.
	maxRetries := 4 + int(0.01*float64(tight.Requests-tight.Shed)) + 1
	if tight.Retries > maxRetries {
		t.Errorf("budget leaked: %d retries > bound %d", tight.Retries, maxRetries)
	}
	if tight.Retries >= unbounded.Retries {
		t.Errorf("tight budget (%d retries) did not bound unbudgeted volume (%d)",
			tight.Retries, unbounded.Retries)
	}
	if tight.Dropped == 0 {
		t.Error("budget exhaustion produced no drops")
	}
}

// TestResilienceHedgingRaces pins hedging: with a warmed quantile the hedger
// launches backups, every race resolves exactly once, and a cancelled loser
// never counts as completed.
func TestResilienceHedgingRaces(t *testing.T) {
	tr := testTrace(t, 60000, 305)
	rc := testRunConfig(3, NewJSQ())
	rc.Resilience = &resilience.Spec{
		Hedge: &resilience.HedgePolicy{Quantile: 0.7, MinObs: 8},
	}
	res, err := Run(tr, rc)
	if err != nil {
		t.Fatal(err)
	}
	checkResilienceConservation(t, "hedge", res)
	if res.Hedges == 0 {
		t.Fatal("hedger never fired at quantile 0.7 under overload")
	}
	if res.Canceled == 0 {
		t.Error("hedge races produced no cancelled losers")
	}
	// No timeouts and no faults: every request resolves by completion, and
	// attempts split exactly into winners, cancelled losers, and ghosts
	// still racing at the end.
	if res.Dropped != 0 || res.Shed != 0 || res.TimedOut != 0 || res.Lost != 0 {
		t.Errorf("hedge-only run dropped/shed/timed out/lost: %d/%d/%d/%d",
			res.Dropped, res.Shed, res.TimedOut, res.Lost)
	}
	if res.ReqCompleted != res.Requests {
		t.Errorf("hedge-only run completed %d of %d requests", res.ReqCompleted, res.Requests)
	}
}

// TestResilienceSheddingProtectsRT pins graceful degradation: under a
// per-class ceiling tight enough to engage, best-effort work is queued and
// shed while the rt tier (highest priority) is never shed.
func TestResilienceSheddingProtectsRT(t *testing.T) {
	tr := testTrace(t, 90000, 306)
	rc := testRunConfig(2, NewJSQ())
	rc.Resilience = &resilience.Spec{
		Shed: &resilience.ShedPolicy{PerNode: 4, Queue: 8},
	}
	res, err := Run(tr, rc)
	if err != nil {
		t.Fatal(err)
	}
	checkResilienceConservation(t, "shed", res)
	if res.Shed == 0 {
		t.Fatal("overloaded run shed nothing at ceiling 4")
	}
	maxPrio := 0
	for _, cl := range tr.Classes {
		if cl.Priority > maxPrio {
			maxPrio = cl.Priority
		}
	}
	for ci := range res.Classes {
		cl := &res.Classes[ci]
		if tr.Classes[ci].Priority == maxPrio && cl.Shed != 0 {
			t.Errorf("rt class %s was shed %d times", cl.Name, cl.Shed)
		}
	}
	var shedSum int
	for ci := range res.Classes {
		shedSum += res.Classes[ci].Shed
	}
	if shedSum != res.Shed {
		t.Errorf("per-class shed sum %d != result shed %d", shedSum, res.Shed)
	}
}

// TestResilienceBreakerMasksFailingNode pins the circuit breaker: with a
// straggler-heavy fault plan and tight timeouts, breakers trip; tripped
// breakers shift dispatch away (the run still completes and conserves).
func TestResilienceBreakerMasksFailingNode(t *testing.T) {
	tr := testTrace(t, 40000, 307)
	rc := testRunConfig(3, NewRoundRobin())
	rc.NodeTypes = []NodeType{
		{Count: 2},
		{Count: 1, SlowFactor: 8}, // one pathologically slow node
	}
	rc.Nodes = 0
	rc.Resilience = &resilience.Spec{
		Timeout: 300 * sim.Microsecond,
		Retry:   &resilience.RetryPolicy{MaxAttempts: 6},
		Breaker: &resilience.BreakerPolicy{Window: 400 * sim.Microsecond, ErrorRate: 0.3, MinVolume: 4},
	}
	res, err := Run(tr, rc)
	if err != nil {
		t.Fatal(err)
	}
	checkResilienceConservation(t, "breaker", res)
	if res.BreakerTrips == 0 {
		t.Fatal("slow node never tripped its breaker")
	}
	slow := &res.Nodes[2]
	fast := &res.Nodes[0]
	if slow.Admitted >= fast.Admitted {
		t.Errorf("breaker did not shift load: slow node admitted %d >= fast node %d",
			slow.Admitted, fast.Admitted)
	}
}

// TestConfigResilienceStanza pins the topology-JSON path: a resilience stanza
// decodes, validates, survives a json.Marshal round trip, and malformed stanzas
// are rejected at ReadConfig time.
func TestConfigResilienceStanza(t *testing.T) {
	good := `{"nodes": 2, "dispatch": "jsq", "resilience": {
		"timeout": 400000,
		"retry": {"max_attempts": 4, "backoff_base": 20000, "budget": {"tokens": 10, "ratio": 0.1}},
		"hedge": {"quantile": 0.9},
		"breaker": {"error_rate": 0.3},
		"shed": {"per_node": 16, "queue": 32}}}`
	c, err := ReadConfig(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Resilience.Enabled() {
		t.Fatal("decoded resilience stanza reports disabled")
	}
	if c.Resilience.Timeout != 400000 || c.Resilience.Retry.MaxAttempts != 4 ||
		c.Resilience.Retry.Budget.Tokens != 10 || c.Resilience.Shed.Queue != 32 {
		t.Errorf("stanza decoded wrong: %+v", *c.Resilience)
	}
	blob, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadConfig(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !reflect.DeepEqual(c, back) {
		t.Error("topology round trip changed the resilience stanza")
	}

	for name, blob := range map[string]string{
		"negative timeout": `{"nodes": 2, "resilience": {"timeout": -5}}`,
		"negative budget":  `{"nodes": 2, "resilience": {"retry": {"budget": {"tokens": -1}}}}`,
		"bad quantile":     `{"nodes": 2, "resilience": {"hedge": {"quantile": 2}}}`,
		"unknown field":    `{"nodes": 2, "resilience": {"no_such_policy": 1}}`,
	} {
		if _, err := ReadConfig(strings.NewReader(blob)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestResilienceDrainRetires drives the resilient drain → retire path: an
// autoscaler that grows the fleet under load and drains it as the backlog
// falls, so draining nodes retire when their last attempt resolves. Every
// retired node must end empty, the lifecycle ledger must balance, and a
// rerun must reproduce the run exactly.
func TestResilienceDrainRetires(t *testing.T) {
	tr := testTrace(t, 40000, 203)
	mkRC := func() RunConfig {
		rc := testRunConfig(6, NewJSQ())
		rc.Autoscale = &StepConfig{Min: 1, Max: 6, HighBacklog: 6, LowBacklog: 3}
		rc.Resilience = resilienceSpec()
		return rc
	}
	res, err := Run(tr, mkRC())
	if err != nil {
		t.Fatal(err)
	}
	checkResilienceConservation(t, "drain", res)
	retired := 0
	for i, n := range res.Nodes {
		if n.State != NodeRetired {
			continue
		}
		retired++
		if n.InFlight != 0 {
			t.Errorf("node %d retired with %d attempts in flight", i, n.InFlight)
		}
	}
	if res.Drains == 0 || retired == 0 {
		t.Fatalf("%d drains, %d retired nodes: the drain path never ran", res.Drains, retired)
	}
	again, err := Run(tr, mkRC())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("re-run diverged")
	}
}

// TestResilientLedgersTrackInFlight pins that the request and attempt
// ledgers are sized by in-flight work, not by the stream: the same fully
// armed fleet (kills, timeouts, retries, hedges, breakers, shedding) at the
// same rate over a four times longer stream may at most double the
// high-water length of either slot table.
func TestResilientLedgersTrackInFlight(t *testing.T) {
	highWater := func(horizon sim.Time) (reqs, atts int) {
		tr := testTraceFor(t, 90000, 307, horizon)
		rc := testRunConfig(3, NewJSQ())
		rc.Faults = &FaultSpec{KillRate: 4000, Downtime: 300 * sim.Microsecond}
		rc.Resilience = resilienceSpec()
		rc.Resilience.Shed = &resilience.ShedPolicy{PerNode: 8, Queue: 16}
		c, err := New(tr, rc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		checkResilienceConservation(t, "ledgers", res)
		if res.Kills == 0 || res.TimedOut == 0 || res.Retries == 0 || res.Hedges == 0 ||
			res.BreakerTrips == 0 || res.Shed == 0 {
			t.Fatalf("horizon %v: kills %d, timeouts %d, retries %d, hedges %d, trips %d, shed %d: a lifecycle path never ran",
				horizon, res.Kills, res.TimedOut, res.Retries, res.Hedges, res.BreakerTrips, res.Shed)
		}
		t.Logf("horizon %v: %d requests, high water %d request and %d attempt slots",
			horizon, res.Requests, len(c.reqs.slots), len(c.atts.slots))
		return len(c.reqs.slots), len(c.atts.slots)
	}
	reqs, atts := highWater(5 * sim.Millisecond)
	reqs4, atts4 := highWater(20 * sim.Millisecond)
	if reqs4 > 2*reqs {
		t.Errorf("request ledger grew with the stream: %d slots at 4x the arrivals, %d at 1x", reqs4, reqs)
	}
	if atts4 > 2*atts {
		t.Errorf("attempt ledger grew with the stream: %d slots at 4x the arrivals, %d at 1x", atts4, atts)
	}
}

// TestStaleLedgerHandles pins the slot tables' generation check: a hedge or
// retry timer whose request resolved (its slot since reused) is ignored,
// the current handle still fires, and an admission or timeout event for a
// released attempt panics.
func TestStaleLedgerHandles(t *testing.T) {
	rc := testRunConfig(2, NewJSQ())
	rc.Resilience = resilienceSpec()
	c, err := New(testTrace(t, 40000, 308), rc)
	if err != nil {
		t.Fatal(err)
	}
	r := c.reqs.take()
	stale := c.reqs.handle(r)
	c.reqs.release(r)
	if again := c.reqs.take(); again != r {
		t.Fatalf("released slot %d not reused (got %d)", r, again)
	}
	*c.reqs.at(r) = reqRec{arr: 1, primary: -1, hedge: -1, hedgeArmed: true}
	fireHedgeEvent(c, stale)
	fireRetryEvent(c, stale)
	if req := c.reqs.at(r); !req.hedgeArmed || req.tries != 0 || len(c.atts.slots) != 0 {
		t.Fatalf("stale handle acted: hedge armed %v, %d tries, %d attempt slots",
			req.hedgeArmed, req.tries, len(c.atts.slots))
	}
	fireRetryEvent(c, c.reqs.handle(r))
	if req := c.reqs.at(r); req.tries != 1 || req.primary < 0 {
		t.Fatalf("current retry handle did not launch: %d tries, primary %d", req.tries, req.primary)
	}

	a := c.atts.take()
	h := c.atts.handle(a)
	c.atts.release(a)
	defer func() {
		if recover() == nil {
			t.Error("timeout event for a released attempt did not panic")
		}
	}()
	attTimeoutEvent(c, h)
}
