package keyaudit

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The negative table: each struct below carries one way a field can fall
// out of a cache key, and the audits must report exactly those fields.

type tuning struct {
	Rate  float64
	trace bool // reached through Config.Tune
}

type config struct {
	Seed   int64
	secret int
	Debug  bool `json:"-"`
	Probe  func() float64
	Tune   tuning
	Ptrs   []*tuning
	Labels map[string]string
}

type request struct {
	App      string
	Priority int // read by nothing on the key path
	Extra    int // in neither table
}

func requestKey(r request) (string, error) { return fmt.Sprint(r.App), nil }

func TestCacheKeyFixtures(t *testing.T) {
	wantHash := []string{"config.secret", "config.Debug", "config.Probe", "tuning.trace"}
	got := HashFields(reflect.TypeOf(config{}))
	if len(got) != len(wantHash) {
		t.Errorf("HashFields = %q, want one problem each for %v", got, wantHash)
	}
	for i, w := range wantHash {
		if i < len(got) && !strings.HasPrefix(got[i], w+" ") {
			t.Errorf("problem %d = %q, want %s", i, got[i], w)
		}
	}

	got = KeyFields(request{App: "wc"}, requestKey,
		map[string]func(*request){
			"App":      func(r *request) { r.App = "mm" },
			"Priority": func(r *request) { r.Priority = 9 },
			"Gone":     func(r *request) {},
		},
		map[string]string{})
	wantKey := []string{
		"field Priority does not change the key",
		"field Extra is in neither",
		"table row Gone names no field",
	}
	if len(got) != len(wantKey) {
		t.Fatalf("KeyFields = %q, want %d problems", got, len(wantKey))
	}
	for i, w := range wantKey {
		if !strings.HasPrefix(got[i], w) {
			t.Errorf("problem %d = %q, want prefix %q", i, got[i], w)
		}
	}
}

// TestKeyFieldsClean is the positive control: a key over every field, and
// an exempt field with a reason, report nothing.
func TestKeyFieldsClean(t *testing.T) {
	key := func(r request) (string, error) { return fmt.Sprint(r.App, r.Priority), nil }
	got := KeyFields(request{App: "wc"}, key,
		map[string]func(*request){
			"App":      func(r *request) { r.App = "mm" },
			"Priority": func(r *request) { r.Priority = 9 },
		},
		map[string]string{"Extra": "response shape only"})
	if len(got) != 0 {
		t.Errorf("KeyFields = %q, want none", got)
	}
	if got := KeyFields(request{}, key, nil, map[string]string{"App": "", "Priority": "x", "Extra": "x"}); len(got) != 1 || !strings.Contains(got[0], "without a reason") {
		t.Errorf("reasonless exemption: %q", got)
	}
}
