package cloud

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"cloudless/internal/eval"
)

func newTestServer(t *testing.T) (*Client, *Sim) {
	t.Helper()
	sim := newTestSim()
	srv := httptest.NewServer(NewServer(sim, slog.New(slog.NewTextHandler(io.Discard, nil))))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client()), sim
}

func TestHTTPRoundTrip(t *testing.T) {
	client, sim := newTestServer(t)
	ctx := context.Background()

	vpc, err := client.Create(ctx, CreateRequest{
		Type: "aws_vpc", Region: "us-east-1",
		Attrs:     vpcAttrs("over-http"),
		Principal: "integration",
	})
	if err != nil {
		t.Fatal(err)
	}
	if vpc.ID == "" || vpc.Attr("cidr_block").AsString() != "10.0.0.0/16" {
		t.Errorf("resource = %+v", vpc)
	}

	got, err := client.Get(ctx, "aws_vpc", vpc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Attr("enable_dns").Equal(eval.True) {
		t.Errorf("defaults lost over the wire: %v", got.Attr("enable_dns"))
	}

	upd, err := client.Update(ctx, UpdateRequest{
		Type: "aws_vpc", ID: vpc.ID,
		Attrs: map[string]eval.Value{"enable_dns": eval.False},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !upd.Attr("enable_dns").Equal(eval.False) {
		t.Errorf("update lost: %v", upd.Attr("enable_dns"))
	}

	list, err := client.List(ctx, "aws_vpc", "us-east-1")
	if err != nil || len(list) != 1 || list[0].ID != vpc.ID {
		t.Fatalf("list = %v, %v", list, err)
	}
	// On the wire a list is always the page object, limit or no limit.
	for _, query := range []string{"", "?region=us-east-1", "?limit=1"} {
		var page struct {
			Resources []wireResource `json:"resources"`
			Next      *string        `json:"next_page_token"`
		}
		if err := client.do(ctx, http.MethodGet, "/v1/resources/aws_vpc"+query, nil, &page); err != nil {
			t.Fatalf("GET list%s: %v", query, err)
		}
		if len(page.Resources) != 1 || page.Resources[0].ID != vpc.ID || page.Next != nil {
			t.Errorf("GET list%s = %+v, want one page holding %s and no next token", query, page, vpc.ID)
		}
	}

	events, err := client.Activity(ctx, 0)
	if err != nil || len(events) != 2 {
		t.Fatalf("activity = %v, %v", events, err)
	}

	if err := client.Delete(ctx, "aws_vpc", vpc.ID, "integration"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get(ctx, "aws_vpc", vpc.ID); !IsNotFound(err) {
		t.Errorf("get after delete = %v", err)
	}

	m, err := client.Metrics(ctx)
	if err != nil || m.Calls == 0 {
		t.Errorf("metrics = %+v, %v", m, err)
	}
	_ = sim
}

// TestClientReportsMissingBatchRoute: a server without the batch routes is an
// error to the caller, not a cue to retry item by item behind its back.
func TestClientReportsMissingBatchRoute(t *testing.T) {
	var paths []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		paths = append(paths, r.Method+" "+r.URL.Path)
		http.NotFound(w, r)
	}))
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	_, getErr := client.BatchGet(ctx, []ResourceKey{{Type: "aws_vpc", ID: "vpc-1"}, {Type: "aws_vpc", ID: "vpc-2"}})
	_, createErr := client.BatchCreate(ctx, []CreateRequest{{Type: "aws_vpc", Attrs: vpcAttrs("a")}})
	for verb, err := range map[string]error{"get": getErr, "create": createErr} {
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != http.StatusNotFound {
			t.Errorf("batch %s against a 404 => %v, want that 404", verb, err)
		}
	}
	srv.Close() // every handler has returned: paths is ours to read
	if want := []string{"POST /v1/batch/get", "POST /v1/batch/create"}; !reflect.DeepEqual(paths, want) {
		t.Errorf("requests = %v, want %v and nothing per item", paths, want)
	}
}

func TestHTTPErrorFidelity(t *testing.T) {
	client, _ := newTestServer(t)
	ctx := context.Background()
	// A deploy-time constraint failure must arrive as a structured APIError
	// with the original cloud message intact — the diagnoser parses these.
	_, err := client.Create(ctx, CreateRequest{
		Type: "aws_vpc", Region: "us-east-1",
		Attrs: map[string]eval.Value{"name": eval.String("x")},
	})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err type = %T", err)
	}
	if ae.Code != CodeInvalid || !strings.Contains(ae.Message, "cidr_block") {
		t.Errorf("error = %+v", ae)
	}
}

func TestHTTPMalformedBody(t *testing.T) {
	sim := newTestSim()
	srv := httptest.NewServer(NewServer(sim, slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/resources/aws_vpc", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestHTTPHealthz(t *testing.T) {
	sim := newTestSim()
	srv := httptest.NewServer(NewServer(sim, slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestHTTPPrincipalHeader(t *testing.T) {
	sim := newTestSim()
	srv := httptest.NewServer(NewServer(sim, slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/resources/aws_vpc",
		strings.NewReader(`{"region":"us-east-1","attrs":{"name":"h","cidr_block":"10.0.0.0/16"}}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Principal", "header-principal")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	events, _ := sim.Activity(context.Background(), 0)
	if len(events) != 1 || events[0].Principal != "header-principal" {
		t.Errorf("events = %+v", events)
	}
}

func TestUnknownValueSurvivesWire(t *testing.T) {
	// Unknown values can appear in planned attribute payloads that tools
	// exchange; the sentinel must survive the JSON wire format.
	w := toWire(&Resource{
		ID: "x", Type: "aws_vpc", Region: "us-east-1",
		Attrs: map[string]eval.Value{"pending": eval.Unknown},
	})
	back := fromWire(w)
	if !back.Attr("pending").IsUnknown() {
		t.Errorf("unknown lost over the wire: %v", back.Attr("pending"))
	}
}

// TestClientsShareOneConnectionPool: clients built without an http.Client
// and dropped after a call, as a stack opened per request does, share one
// connection pool, so the server holds a few connections, not one kept idle
// per dropped client.
func TestClientsShareOneConnectionPool(t *testing.T) {
	var live atomic.Int64
	srv := httptest.NewUnstartedServer(NewServer(newTestSim(), slog.New(slog.NewTextHandler(io.Discard, nil))))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			live.Add(1)
		case http.StateClosed, http.StateHijacked:
			live.Add(-1)
		}
	}
	srv.Start()
	defer srv.Close()
	for i := 0; i < 200; i++ {
		if _, err := NewClient(srv.URL, nil).List(context.Background(), "aws_vpc", ""); err != nil {
			t.Fatal(err)
		}
	}
	if n := live.Load(); n > 4 {
		t.Errorf("200 dropped clients left %d live connections, want at most 4", n)
	}
}
