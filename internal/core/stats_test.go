package core

import (
	"reflect"
	"testing"
)

// TestStatsAccumulateFoldsEveryField sets every Stats field of two values
// to distinct non-zero numbers and requires Accumulate, in both directions,
// to add each counter and keep the larger of each high-water mark. A field
// added to Stats without its line in Accumulate fails here.
func TestStatsAccumulateFoldsEveryField(t *testing.T) {
	highWater := map[string]bool{"MaxPTBQ": true, "MaxActive": true}
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	typ := va.Type()
	for i := range typ.NumField() {
		if k := typ.Field(i).Type.Kind(); k != reflect.Int && k != reflect.Int64 {
			t.Fatalf("Stats.%s is a %s: say here how Accumulate folds it", typ.Field(i).Name, k)
		}
		va.Field(i).SetInt(int64(3 * (i + 1)))
		vb.Field(i).SetInt(int64(1000*(i+1) + 1))
	}
	for _, dir := range []struct {
		name       string
		into, from Stats
	}{{"b into a", a, b}, {"a into b", b, a}} {
		got := dir.into
		got.Accumulate(dir.from)
		vg := reflect.ValueOf(got)
		for i := range typ.NumField() {
			name := typ.Field(i).Name
			x, y := va.Field(i).Int(), vb.Field(i).Int()
			want := x + y
			if highWater[name] {
				want = max(x, y)
			}
			if g := vg.Field(i).Int(); g != want {
				t.Errorf("%s: Stats.%s = %d, want %d", dir.name, name, g, want)
			}
		}
	}
}
