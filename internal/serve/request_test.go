package serve

import (
	"errors"
	"testing"

	"wivfi/internal/expt"
	"wivfi/internal/keyaudit"
)

// TestRequestFieldsReachKey perturbs every Request field and requires the
// dedup/memo key to move, so two requests differing only in one field
// never share a result. A new field fails here until it gets a row.
func TestRequestFieldsReachKey(t *testing.T) {
	base := expt.DefaultConfig()
	key := func(r Request) (string, error) {
		cfg, err := r.Config(base)
		if err != nil {
			return "", err
		}
		k := expt.RequestKey(cfg, r.App, r.keyExtras()...)
		if k == "" {
			return "", errors.New("empty key")
		}
		return k, nil
	}
	perturb := map[string]func(*Request){
		"App":             func(r *Request) { r.App = "wc" },
		"NumIslands":      func(r *Request) { r.NumIslands = ptr(2) },
		"FreqMargin":      func(r *Request) { r.FreqMargin = ptr(0.2) },
		"BottleneckRatio": func(r *Request) { r.BottleneckRatio = ptr(2.0) },
		"Policy":          func(r *Request) { r.Policy = "util" },
		"CapWatts":        func(r *Request) { r.CapWatts = ptr(150.0) },
	}
	exempt := map[string]string{
		"Stream": "response shape only: one design is served as a document or as an event stream",
	}
	for _, p := range keyaudit.KeyFields(Request{App: "mm", Policy: "cap"}, key, perturb, exempt) {
		t.Error(p)
	}
}

func ptr[T any](v T) *T { return &v }
