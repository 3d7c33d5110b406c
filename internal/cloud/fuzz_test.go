package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzServerBodies feeds arbitrary bytes to every route of the server that
// decodes a request body. Whatever arrives, the handler must not panic, must
// not answer 5xx, and must answer a body that does not decode with a 400
// carrying a JSON APIError — the shape Client.do turns back into an error.
// Bodies that do decode as an attribute map are also pushed through the
// resource wire form, which must keep every attribute (unknown values
// included). The seed corpus is the bodies the provider conformance suite
// sends.
func FuzzServerBodies(f *testing.F) {
	for _, seed := range []string{
		`{"region":"us-east-1","attrs":{"name":"conf","cidr_block":"10.0.0.0/16"},"principal":"seed"}`,
		`{"attrs":{"name":"ev-a2"},"principal":"conf"}`,
		`{"attrs":{"pending":"\u0000cloudless:unknown\u0000","tags":{"a":[1,true,null,"\u0000cloudless:unknown\u0000"]}}}`,
		`{"items":[{"type":"aws_nope","region":"us-east-1","attrs":{}},` +
			`{"type":"aws_vpc","region":"us-east-1","attrs":{"name":"bulk-a","cidr_block":"10.0.0.0/16"},"idempotency_key":"key-a"},` +
			`{"type":"aws_region","attrs":null}]}`,
		`{"keys":[{"type":"aws_vpc","id":"vpc-00000001"},{"type":"aws_vpc","id":"vpc-missing"}]}`,
		`{"keys":[{"type":"aws_vpc","id":"vpc-00000001","if_generation":1},` +
			`{"type":"aws_vpc","id":"vpc-00000001","if_generation":-3},{"type":"aws_vpc","id":"vpc-missing","if_generation":1}]}`,
		`{"keys":[{"type":"aws_vpc","id":"vpc-00000001","if_generation":"1"}]}`,
		`{"keys":[{"type":"aws_vpc","id":"vpc-00000001","if_generation":1e30}]}`,
		`{"keys":[]}`, `{"items":[{}]}`, `{not json`, `[]`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	f.Fuzz(func(t *testing.T, body []byte) {
		// A fresh cloud per input keeps every execution independent of the
		// ones before it, so a crasher replays from its corpus file alone.
		sim := newTestSim()
		seeded := mustCreate(t, sim, "aws_vpc", "us-east-1", vpcAttrs("seeded"))
		srv := NewServer(sim, quiet)

		routes := []struct {
			method, path string
			into         func() any
		}{
			{http.MethodPost, "/v1/resources/aws_vpc", func() any { return new(wireCreate) }},
			{http.MethodPatch, "/v1/resources/aws_vpc/" + seeded.ID, func() any { return new(wireUpdate) }},
			{http.MethodPost, "/v1/batch/create", func() any { return new(wireBatchCreate) }},
			{http.MethodPost, "/v1/batch/get", func() any { return new(wireBatchGet) }},
		}
		for _, rt := range routes {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(rt.method, rt.path, bytes.NewReader(body)))
			decodes := json.NewDecoder(bytes.NewReader(body)).Decode(rt.into()) == nil
			switch {
			case rec.Code >= 500:
				t.Errorf("%s %s => %d: %s", rt.method, rt.path, rec.Code, rec.Body)
			case rec.Code >= 400:
				var ae APIError
				if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil || ae.Message == "" || ae.Code != rec.Code {
					t.Errorf("%s %s => %d with body %q, want a JSON APIError of that code", rt.method, rt.path, rec.Code, rec.Body)
				}
			case !json.Valid(rec.Body.Bytes()):
				t.Errorf("%s %s => %d with a body that is not JSON: %q", rt.method, rt.path, rec.Code, rec.Body)
			}
			if !decodes && rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s => %d for a body that does not decode, want 400", rt.method, rt.path, rec.Code)
			}
		}
		if got, err := sim.Get(context.Background(), "aws_vpc", seeded.ID); err != nil || got.ID != seeded.ID {
			t.Errorf("seeded resource after the requests => %v, %v", got, err)
		}

		var upd wireUpdate
		if json.Unmarshal(body, &upd) != nil {
			return
		}
		res := seeded.Clone()
		for k, v := range attrsFromWire(upd.Attrs) {
			res.Attrs[k] = v
		}
		var w wireResource
		if err := json.Unmarshal(marshalJSON(toWire(res)), &w); err != nil {
			t.Fatalf("wire form of %v does not decode: %v", res.Attrs, err)
		}
		back := fromWire(w)
		if len(back.Attrs) != len(res.Attrs) {
			t.Errorf("%d attributes went out, %d came back", len(res.Attrs), len(back.Attrs))
		}
		for k, v := range res.Attrs {
			if got, ok := back.Attrs[k]; !ok || !got.Equal(v) {
				t.Errorf("attribute %q = %v over the wire, want %v", k, got, v)
			}
		}
	})
}
