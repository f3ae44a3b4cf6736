package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// renderAll renders every table of a reduced DSS + priority grid, so two
// runs can be compared byte-for-byte.
func renderAll(t *testing.T, o Options) string {
	t.Helper()
	var b strings.Builder
	fig5, fig6, err := RunPriority(o)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(fig5.Table().Render())
	b.WriteString(fig6.Table().Render())
	fig7, fig8, err := RunDSS(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range fig7.Tables() {
		b.WriteString(tab.Render())
	}
	b.WriteString(fig8.Table().Render())
	return b.String()
}

// TestGridDeterministicAcrossWorkerCounts is the core guarantee of the
// concurrent runner: the full experiment grid produces byte-identical metric
// tables (NTT, ANTT, STP, fairness cells included) at any worker count,
// because every simulation derives its randomness from its grid coordinates
// and aggregation walks results in submission order.
func TestGridDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("grid determinism sweep in -short mode")
	}
	o := quickOpts(2)
	o.PerSize = 3
	o.Workers = 1
	want := renderAll(t, o)
	for _, workers := range []int{2, 8} {
		o.Workers = workers
		if got := renderAll(t, o); got != want {
			t.Errorf("workers=%d produced different tables than workers=1:\n--- got ---\n%s\n--- want ---\n%s",
				workers, got, want)
		}
	}
}

// TestLoadDeterministicAcrossWorkerCounts pins the open-system sweep's
// determinism: for a seeded arrival stream, the rendered load table —
// quantile-sketch percentiles, miss rates, goodput and utilization included
// — is byte-identical whether the grid ran on 1, 4 or 8 workers.
func TestLoadDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("load determinism sweep in -short mode")
	}
	o := quickOpts(2)
	o.Workers = 1
	run := func() string {
		r, err := RunLoad(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.Table().Render()
	}
	want := run()
	for _, workers := range []int{4, 8} {
		o.Workers = workers
		if got := run(); got != want {
			t.Errorf("workers=%d produced a different load table than workers=1:\n--- got ---\n%s\n--- want ---\n%s",
				workers, got, want)
		}
	}
}

// TestClusterDeterministicAcrossWorkerCounts pins the cluster sweep's
// determinism against the committed golden: the lockstep merge plus
// per-cell dispatcher construction makes every cell a pure function of the
// shared stream, so the full golden grid — merged quantile sketches, miss
// rates, mean utilizations — is byte-identical to testdata/cluster.golden
// whether it ran on 1, 4 or 8 workers.
func TestClusterDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster determinism sweep in -short mode")
	}
	if *update {
		t.Skip("golden comparison is meaningless while rewriting goldens")
	}
	for _, workers := range []int{1, 4, 8} {
		o := goldenOpts()
		o.Workers = workers
		r, err := RunCluster(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := compareGolden("cluster", r.Table().Render()); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}

// TestFig2DeterministicAcrossRuns covers the concurrently executed Figure 2
// scenario: repeated runs at the same seed are identical.
func TestFig2DeterministicAcrossRuns(t *testing.T) {
	a, err := RunFig2(42, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig2(42, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("fig2 not deterministic: %+v vs %+v", a, b)
	}
}

// TestProgressCounterCoversAllJobs checks the [completed/total] progress
// counter: every job of the grid reports exactly once and the counter
// reaches the total.
func TestProgressCounterCoversAllJobs(t *testing.T) {
	var buf bytes.Buffer
	o := quickOpts(2)
	o.PerSize = 2
	o.Workers = 4
	o.Progress = &buf
	if _, _, err := RunDSS(o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	// 2 workloads x 3 configurations.
	if len(lines) != 6 {
		t.Fatalf("progress lines = %d, want 6:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[len(lines)-1], "[6/6]") {
		t.Errorf("last progress line missing [6/6]: %q", lines[len(lines)-1])
	}
}
