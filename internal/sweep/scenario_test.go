package sweep

import (
	"errors"
	"testing"

	"wivfi/internal/keyaudit"
)

// TestScenarioFieldsReachKey perturbs every Scenario field and requires
// Scenario.Key to move: the key is the journal resume key and the
// design-cache handle, so a field outside it would let two scenarios
// share one record.
func TestScenarioFieldsReachKey(t *testing.T) {
	key := func(sc Scenario) (string, error) {
		if k := sc.Key(); k != "" {
			return k, nil
		}
		return "", errors.New("empty key")
	}
	perturb := map[string]func(*Scenario){
		"Rows":    func(sc *Scenario) { sc.Rows = 6 },
		"Cols":    func(sc *Scenario) { sc.Cols = 6 },
		"Islands": func(sc *Scenario) { sc.Islands = 2 },
		"Sizes":   func(sc *Scenario) { sc.Sizes = []int{8, 24, 16, 16} },
		"App":     func(sc *Scenario) { sc.App = "mm" },
		"Margin":  func(sc *Scenario) { sc.Margin = 0.25 },
		"Policy":  func(sc *Scenario) { sc.Policy = "util" },
		"CapW":    func(sc *Scenario) { sc.CapW = 150 },
		"Tier":    func(sc *Scenario) { sc.Tier = TierWiNoC },
	}
	base := Scenario{Rows: 8, Cols: 8, Islands: 4, App: "wc", Margin: 0.35, Policy: "cap", CapW: 120}
	for _, p := range keyaudit.KeyFields(base, key, perturb, nil) {
		t.Error(p)
	}
}
