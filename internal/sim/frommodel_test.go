package sim

import (
	"reflect"
	"testing"

	"bgperf/internal/core"
)

// TestFromModelCopiesEveryModelField sets every core.Config field to a
// distinct non-zero value and checks both directions of the mapping:
// FromModel carries each one into the same-named Config field, and model
// carries it back, so a field added to the model cannot be silently dropped
// on the way to or from the simulator.
func TestFromModelCopiesEveryModelField(t *testing.T) {
	var cfg core.Config
	cv := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < cv.NumField(); i++ {
		f := cv.Field(i)
		switch f.Kind() {
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Int:
			f.SetInt(int64(i) + 1)
		default:
			t.Fatalf("core.Config.%s: no distinct value for kind %s", cv.Type().Field(i).Name, f.Kind())
		}
	}
	sc := FromModel(cfg, 7, 11, 13)
	sv := reflect.ValueOf(sc)
	for i := 0; i < cv.NumField(); i++ {
		name := cv.Type().Field(i).Name
		got := sv.FieldByName(name)
		if !got.IsValid() {
			t.Errorf("sim.Config has no field %s", name)
			continue
		}
		if got.Interface() != cv.Field(i).Interface() {
			t.Errorf("sim.Config.%s = %v, want %v", name, got.Interface(), cv.Field(i).Interface())
		}
	}
	if sc.Seed != 7 || sc.WarmupTime != 11 || sc.MeasureTime != 13 {
		t.Errorf("run fields = (%d, %g, %g), want (7, 11, 13)", sc.Seed, sc.WarmupTime, sc.MeasureTime)
	}
	if back := sc.model(); !reflect.DeepEqual(back, cfg) {
		t.Errorf("model(FromModel(cfg)) = %+v, want %+v", back, cfg)
	}
}
