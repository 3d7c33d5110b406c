package cloudless_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"cloudless/internal/eval"
	"cloudless/internal/state"
)

// newHTTPServer wires an http.Handler into a test server and returns its URL.
func newHTTPServer(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}

// setAttr edits one attribute the only way the immutable-record rule allows:
// on a copy of the record, which then replaces it. The copy holds attributes
// no cloud response did, so it drops the generation.
func setAttr(s *state.State, addr, name string, v eval.Value) {
	rs := s.Get(addr).Clone()
	rs.Attrs[name] = v
	rs.Generation = 0
	s.Set(rs)
}
