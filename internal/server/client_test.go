package server_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"cloudless/internal/eval"
	"cloudless/internal/server"
	"cloudless/internal/state"
)

// TestClientStateReadsLargeBodies: a state endpoint's body is as large as
// the estate, and the client reads it whole. It used to stop at the 4 MiB
// that bounds request bodies, so 9 000 NIC records (4.7 MB) failed to
// decode with "unexpected end of JSON input".
func TestClientStateReadsLargeBodies(t *testing.T) {
	s := state.New()
	s.Serial = 7
	for i := 0; i < 9000; i++ {
		id := fmt.Sprintf("network_interface-%08d", i)
		s.Set(&state.ResourceState{
			Addr: fmt.Sprintf("aws_network_interface.r%d", i), Type: "aws_network_interface", ID: id, Region: "us-east-1",
			Attrs: map[string]eval.Value{
				"id":          eval.String(id),
				"mac_address": eval.String(fmt.Sprintf("02:00:00:00:%02x:%02x", i>>8&0xff, i&0xff)),
				"name":        eval.String(fmt.Sprintf("r-nic-%d", i)),
				"subnet_id":   eval.String(fmt.Sprintf("subnet-%08d", i%333)),
			},
			Generation:   1,
			Dependencies: []string{"aws_subnet.r"},
		})
	}
	body, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(body) <= 4<<20 {
		t.Fatalf("fixture body is %d bytes, want more than 4 MiB", len(body))
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(body)
	}))
	defer ts.Close()

	got, err := server.NewClient(ts.URL, "", ts.Client()).State(context.Background(), "big")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 9000 || got.Serial != 7 || got.Fingerprint() != s.Fingerprint() {
		t.Errorf("read %d records at serial %d, want all 9000 at serial 7 and the same fingerprint", got.Len(), got.Serial)
	}
}
