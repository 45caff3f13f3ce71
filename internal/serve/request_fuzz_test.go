package serve

import (
	"bytes"
	"encoding/json"
	"net/url"
	"testing"

	"wivfi/internal/expt"
)

// FuzzRequest feeds arbitrary POST bodies and query strings through the
// request boundary of /v1/design: decodeRequest (one JSON object, unknown
// fields rejected) or parseQuery, then Request.Config and RequestKey. No
// input may panic. Every accepted request must key non-empty and
// deterministically, and a body-decoded request must key the same after a
// JSON round trip. Seeds live in testdata/fuzz/FuzzRequest.
func FuzzRequest(f *testing.F) {
	base := expt.DefaultConfig()
	keyOf := func(t *testing.T, req Request) (string, bool) {
		cfg, err := req.Config(base)
		if err != nil {
			return "", false
		}
		key := expt.RequestKey(cfg, req.App, req.keyExtras()...)
		if key == "" {
			t.Fatalf("accepted request %+v keys empty", req)
		}
		if again := expt.RequestKey(cfg, req.App, req.keyExtras()...); again != key {
			t.Fatalf("request %+v keys %s, then %s", req, key, again)
		}
		return key, true
	}
	f.Fuzz(func(t *testing.T, body []byte, query string) {
		if req, err := decodeRequest(bytes.NewReader(body)); err == nil {
			if key, ok := keyOf(t, req); ok {
				blob, err := json.Marshal(req)
				if err != nil {
					t.Fatalf("accepted request does not marshal: %v", err)
				}
				again, err := decodeRequest(bytes.NewReader(blob))
				if err != nil {
					t.Fatalf("re-encoded request %s rejected: %v", blob, err)
				}
				if k, ok := keyOf(t, again); !ok || k != key {
					t.Fatalf("request keys %s, after a JSON round trip %s (accepted %v)", key, k, ok)
				}
			}
		}
		if q, err := url.ParseQuery(query); err == nil {
			if req, err := parseQuery(q); err == nil {
				keyOf(t, req)
			}
		}
	})
}
