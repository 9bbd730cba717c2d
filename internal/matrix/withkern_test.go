package matrix

import (
	"errors"
	"testing"
)

// TestGenArrayFlatSharesAdmission: the flat engine admits through the
// closure engine's validation and allocation helpers, so every
// admission failure is returned by the flat engine itself
// (handled=true) with GenArrayExec's exact error text, the same
// alloc-hook firings and the same budget consumption.
func TestGenArrayFlatSharesAdmission(t *testing.T) {
	injected := errors.New("allocator fault")
	// Body: the first generator id, an int body into int cells.
	code := []WithInstr{{Op: WPushID, A: 0}}
	closure := func(idx []int) (any, error) { return int64(idx[0]), nil }
	for _, tc := range []struct {
		name                string
		lower, upper, shape []int
		limit               int64 // budget cells; 0 = unlimited
		hook                bool  // inject an allocator fault
	}{
		{name: "rank_mismatch", lower: []int{0}, upper: []int{4}, shape: []int{4, 4}},
		{name: "not_superset", lower: []int{0}, upper: []int{5}, shape: []int{4}},
		{name: "oversized", lower: []int{0, 0}, upper: []int{1, 1}, shape: []int{1 << 40, 1 << 40}},
		{name: "alloc_hook", lower: []int{0}, upper: []int{8}, shape: []int{8}, hook: true},
		{name: "budget_exhausted", lower: []int{0}, upper: []int{8}, shape: []int{8}, limit: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(flat bool) (handled bool, used int64, fired int, err error) {
				TestHookAllocFail = func(int) error {
					fired++
					if tc.hook {
						return injected
					}
					return nil
				}
				defer func() { TestHookAllocFail = nil }()
				b := NewBudget(tc.limit)
				x := Exec{Budget: b}
				if flat {
					_, handled, err = GenArrayFlat(Int, tc.lower, tc.upper, tc.shape, &WithEnv{Code: code}, x)
				} else {
					_, err = GenArrayExec(Int, tc.lower, tc.upper, tc.shape, closure, x)
					handled = true
				}
				return handled, b.Used(), fired, err
			}
			_, wantUsed, wantFired, wantErr := run(false)
			if wantErr == nil {
				t.Fatal("GenArrayExec admitted the case; the table expects an admission failure")
			}
			handled, used, fired, err := run(true)
			if !handled {
				t.Fatal("GenArrayFlat declined an admission failure instead of returning it")
			}
			if err == nil || err.Error() != wantErr.Error() {
				t.Errorf("error = %v, want %q", err, wantErr)
			}
			if used != wantUsed {
				t.Errorf("Budget.Used() = %d, want %d", used, wantUsed)
			}
			if fired != wantFired {
				t.Errorf("alloc hook fired %d times, want %d", fired, wantFired)
			}
		})
	}
}
