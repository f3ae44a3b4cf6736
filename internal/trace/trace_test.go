package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func validKernel() KernelSpec {
	return KernelSpec{
		Name: "k", NumTBs: 10, TBTime: sim.Microseconds(5),
		RegsPerTB: 1000, SharedMemPerTB: 0, ThreadsPerTB: 128, Launches: 1,
	}
}

func validApp() *App {
	return &App{
		Name:    "app",
		Kernels: []KernelSpec{validKernel()},
		Ops: []Op{
			{Kind: OpH2D, Bytes: 1024},
			{Kind: OpCPU, Dur: sim.Microseconds(10)},
			{Kind: OpLaunch, Kernel: 0},
			{Kind: OpSync},
			{Kind: OpD2H, Bytes: 512},
		},
		Class1: ClassShort,
		Class2: ClassMedium,
	}
}

func TestKernelSpecValidate(t *testing.T) {
	good := validKernel()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*KernelSpec)
	}{
		{"empty name", func(k *KernelSpec) { k.Name = "" }},
		{"zero TBs", func(k *KernelSpec) { k.NumTBs = 0 }},
		{"TB index beyond int32", func(k *KernelSpec) { k.NumTBs = math.MaxInt32; k.NumTBs++ }},
		{"zero TB time", func(k *KernelSpec) { k.TBTime = 0 }},
		{"negative regs", func(k *KernelSpec) { k.RegsPerTB = -1 }},
		{"negative smem", func(k *KernelSpec) { k.SharedMemPerTB = -1 }},
		{"zero threads", func(k *KernelSpec) { k.ThreadsPerTB = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := validKernel()
			c.mutate(&k)
			if err := k.Validate(); err == nil {
				t.Errorf("%s not rejected", c.name)
			}
		})
	}
}

func TestAppValidate(t *testing.T) {
	if err := validApp().Validate(); err != nil {
		t.Fatalf("valid app rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*App)
	}{
		{"empty name", func(a *App) { a.Name = "" }},
		{"no kernels", func(a *App) { a.Kernels = nil }},
		{"no ops", func(a *App) { a.Ops = nil }},
		{"kernel index out of range", func(a *App) { a.Ops[2].Kernel = 5 }},
		{"zero-byte transfer", func(a *App) { a.Ops[0].Bytes = 0 }},
		{"negative cpu", func(a *App) { a.Ops[1].Dur = -1 }},
		{"no launches", func(a *App) {
			a.Ops = []Op{{Kind: OpCPU, Dur: 1}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := validApp()
			c.mutate(a)
			if err := a.Validate(); err == nil {
				t.Errorf("%s not rejected", c.name)
			}
		})
	}
}

func TestLaunchCounts(t *testing.T) {
	a := validApp()
	a.Ops = append(a.Ops, Op{Kind: OpLaunch, Kernel: 0})
	counts := a.LaunchCounts()
	if len(counts) != 1 || counts[0] != 2 {
		t.Fatalf("LaunchCounts = %v, want [2]", counts)
	}
}

func TestTransferAndCPUTotals(t *testing.T) {
	a := validApp()
	h2d, d2h := a.TotalTransferBytes()
	if h2d != 1024 || d2h != 512 {
		t.Fatalf("TotalTransferBytes = %d,%d", h2d, d2h)
	}
	if a.TotalCPUTime() != sim.Microseconds(10) {
		t.Fatalf("TotalCPUTime = %v", a.TotalCPUTime())
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := validApp()
	b := a.Clone()
	b.Kernels[0].NumTBs = 999
	b.Ops[0].Bytes = 999
	if a.Kernels[0].NumTBs == 999 || a.Ops[0].Bytes == 999 {
		t.Fatal("Clone shares storage with the original")
	}
}

func TestScalePreservesPerTBStats(t *testing.T) {
	a := validApp()
	a.Kernels[0].NumTBs = 100
	s := a.Scale(8)
	if s.Kernels[0].NumTBs != 13 {
		t.Errorf("scaled NumTBs = %d, want ceil(100/8)=13", s.Kernels[0].NumTBs)
	}
	if s.Kernels[0].TBTime != a.Kernels[0].TBTime {
		t.Error("Scale changed TBTime")
	}
	if s.Kernels[0].RegsPerTB != a.Kernels[0].RegsPerTB {
		t.Error("Scale changed RegsPerTB")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scaled app invalid: %v", err)
	}
}

func TestScaleKeepsAtLeastOneLaunch(t *testing.T) {
	a := validApp()
	s := a.Scale(1000)
	if got := s.LaunchCounts()[0]; got != 1 {
		t.Fatalf("scaled launches = %d, want 1", got)
	}
}

func TestScaleDropsLaunchesProportionally(t *testing.T) {
	a := validApp()
	a.Ops = nil
	for i := 0; i < 100; i++ {
		a.Ops = append(a.Ops, Op{Kind: OpLaunch, Kernel: 0})
	}
	s := a.Scale(4)
	if got := s.LaunchCounts()[0]; got != 25 {
		t.Fatalf("scaled launches = %d, want 25", got)
	}
}

func TestScaleFactorOneIsClone(t *testing.T) {
	a := validApp()
	s := a.Scale(1)
	if len(s.Ops) != len(a.Ops) {
		t.Fatal("Scale(1) changed ops")
	}
	s.Ops[0].Bytes = 7777
	if a.Ops[0].Bytes == 7777 {
		t.Fatal("Scale(1) did not copy")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := &Suite{Apps: []*App{validApp()}}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Apps) != 1 {
		t.Fatalf("round trip lost apps")
	}
	a, b := s.Apps[0], got.Apps[0]
	if a.Name != b.Name || a.Class1 != b.Class1 || a.Class2 != b.Class2 {
		t.Errorf("metadata mismatch: %+v vs %+v", a, b)
	}
	if len(a.Kernels) != len(b.Kernels) || a.Kernels[0] != b.Kernels[0] {
		t.Errorf("kernel mismatch: %+v vs %+v", a.Kernels, b.Kernels)
	}
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("ops mismatch: %d vs %d", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Errorf("op %d mismatch: %+v vs %+v", i, a.Ops[i], b.Ops[i])
		}
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"empty suite":   `{"apps": []}`,
		"unknown field": `{"apps": [], "bogus": 1}`,
		"invalid app":   `{"apps": [{"name": "", "kernels": [], "ops": []}]}`,
		"bad op kind":   `{"apps": [{"name":"x","kernels":[{"name":"k","num_tbs":1,"tb_time_ns":1,"threads_per_tb":1}],"ops":[{"kind":"bogus"}],"class1":"SHORT","class2":"SHORT"}]}`,
		"bad class":     `{"apps": [{"name":"x","kernels":[{"name":"k","num_tbs":1,"tb_time_ns":1,"threads_per_tb":1}],"ops":[{"kind":"launch"}],"class1":"NOPE","class2":"SHORT"}]}`,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
				t.Errorf("%s accepted", name)
			}
		})
	}
}

func TestClassStringAndParse(t *testing.T) {
	for _, c := range []Class{ClassShort, ClassMedium, ClassLong, ClassUnknown} {
		parsed, err := ParseClass(c.String())
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", c.String(), err)
		}
		if parsed != c {
			t.Errorf("round trip %v != %v", parsed, c)
		}
	}
	if _, err := ParseClass("NOPE"); err == nil {
		t.Error("ParseClass accepted garbage")
	}
}

func TestOpKindString(t *testing.T) {
	want := map[OpKind]string{OpCPU: "cpu", OpH2D: "h2d", OpD2H: "d2h", OpLaunch: "launch", OpSync: "sync"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("OpKind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestSliceKernels(t *testing.T) {
	a := validApp()
	a.Kernels[0].NumTBs = 100
	s := SliceKernels(a, 30)
	if err := s.Validate(); err != nil {
		t.Fatalf("sliced app invalid: %v", err)
	}
	// 100 TBs at 30/slice: 3 full slices + 10-TB remainder.
	if len(s.Kernels) != 2 {
		t.Fatalf("sliced kernels = %d, want 2 (full + remainder)", len(s.Kernels))
	}
	if s.Kernels[0].NumTBs != 30 || s.Kernels[1].NumTBs != 10 {
		t.Errorf("slice sizes = %d/%d, want 30/10", s.Kernels[0].NumTBs, s.Kernels[1].NumTBs)
	}
	counts := s.LaunchCounts()
	if counts[0] != 3 || counts[1] != 1 {
		t.Errorf("slice launches = %v, want [3 1]", counts)
	}
	// Total thread blocks preserved.
	total := 0
	for i, c := range counts {
		total += c * s.Kernels[i].NumTBs
	}
	if total != 100 {
		t.Errorf("sliced TBs = %d, want 100", total)
	}
	// Per-TB statistics unchanged.
	if s.Kernels[0].TBTime != a.Kernels[0].TBTime || s.Kernels[0].RegsPerTB != a.Kernels[0].RegsPerTB {
		t.Error("slicing changed per-TB statistics")
	}
}

func TestSliceKernelsExactDivision(t *testing.T) {
	a := validApp()
	a.Kernels[0].NumTBs = 60
	s := SliceKernels(a, 30)
	if len(s.Kernels) != 1 {
		t.Fatalf("kernels = %d, want 1 (no remainder)", len(s.Kernels))
	}
	if got := s.LaunchCounts()[0]; got != 2 {
		t.Errorf("launches = %d, want 2", got)
	}
}

func TestSliceKernelsNoOpWhenSmall(t *testing.T) {
	a := validApp() // 10 TBs
	s := SliceKernels(a, 30)
	if len(s.Kernels) != 1 || s.Kernels[0].NumTBs != 10 {
		t.Error("small kernel should not be sliced")
	}
	if got := s.LaunchCounts()[0]; got != 1 {
		t.Errorf("launches = %d, want 1", got)
	}
	// Zero slice size = clone.
	c := SliceKernels(a, 0)
	if len(c.Ops) != len(a.Ops) {
		t.Error("SliceKernels(0) should clone")
	}
}
