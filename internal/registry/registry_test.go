package registry

import (
	"reflect"
	"testing"
)

type build = func(map[string]int) int

var testSet = New("widget", []Family[build]{
	{Name: "plain", Doc: "no parameters"},
	{Name: "knobs", Doc: "two parameters", Params: []Param{
		{Name: "x", Doc: "first", Default: 3},
		{Name: "y", Doc: "second", Default: 0},
	}},
})

func TestResolve(t *testing.T) {
	for _, tc := range []struct {
		name   string
		family string
		params map[string]int
		want   string // resolved family name; "" when rejected
		full   map[string]int
		err    string
	}{
		{name: "defaults", family: "knobs", params: map[string]int{}, want: "knobs", full: map[string]int{"x": 3, "y": 0}},
		{name: "nil map", family: "knobs", want: "knobs", full: map[string]int{"x": 3, "y": 0}},
		{name: "overlay", family: "knobs", params: map[string]int{"y": -7}, want: "knobs", full: map[string]int{"x": 3, "y": -7}},
		{name: "no schema", family: "plain", want: "plain", full: map[string]int{}},
		{name: "case folding", family: "KNobs", params: map[string]int{"x": 1}, want: "knobs", full: map[string]int{"x": 1, "y": 0}},
		{
			name: "unknown keys listed sorted", family: "Knobs", params: map[string]int{"z": 1, "b": 2, "x": 5}, want: "knobs",
			err: `widget: family "knobs": unknown parameter(s) [b z] (valid: [x y])`,
		},
		{
			name: "unknown key on a family without parameters", family: "plain", params: map[string]int{"x": 1}, want: "plain",
			err: `widget: family "plain": unknown parameter(s) [x] (valid: [])`,
		},
		{
			name: "unknown family lists the names", family: "gadget",
			err: `widget: unknown family "gadget" (supported: [plain knobs])`,
		},
	} {
		f, full, err := testSet.Resolve(tc.family, tc.params)
		if f.Name != tc.want {
			t.Errorf("%s: resolved family %q, want %q", tc.name, f.Name, tc.want)
		}
		if tc.err != "" {
			if err == nil || err.Error() != tc.err || full != nil {
				t.Errorf("%s: Resolve = %v, %v; want error %q", tc.name, full, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(full, tc.full) {
			t.Errorf("%s: Resolve = %v, %v; want %v", tc.name, full, err, tc.full)
		}
	}
}

func TestListIsACopy(t *testing.T) {
	l := testSet.List()
	l[0].Name = "changed"
	if got := testSet.Names(); !reflect.DeepEqual(got, []string{"plain", "knobs"}) {
		t.Errorf("editing List's result changed the set: Names() = %v", got)
	}
	if _, _, err := testSet.Resolve("plain", nil); err != nil {
		t.Errorf("editing List's result changed the lookup: %v", err)
	}
}
