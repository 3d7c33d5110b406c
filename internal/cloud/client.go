package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// retryAfterHeader parses a whole-seconds Retry-After response header.
func retryAfterHeader(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Client talks to a cloud Server over HTTP and satisfies the same Interface
// as the in-process simulator, so the rest of the system cannot tell whether
// its cloud is a goroutine away or a network away.
type Client struct {
	base string
	http *http.Client
}

var _ Interface = (*Client)(nil)

// defaultHTTP is the HTTP client of every Client built without one. It is
// shared so that clients made and dropped per stack reuse one connection
// pool: a transport per client keeps its own idle connections open for
// IdleConnTimeout after the client is gone. The transport is tuned for the
// provider runtime's concurrency: the default transport caps idle
// connections per host at 2, which under a few dozen concurrent calls to one
// control-plane endpoint churns through TCP handshakes; and a single
// whole-request timeout is replaced by per-phase timeouts so a stalled
// server surfaces as an error in seconds, not minutes.
var defaultHTTP = &http.Client{
	Transport: &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          256,
		MaxIdleConnsPerHost:   128,
		MaxConnsPerHost:       0, // concurrency is the runtime's job
		IdleConnTimeout:       90 * time.Second,
		ResponseHeaderTimeout: 30 * time.Second,
		ExpectContinueTimeout: time.Second,
	},
	Timeout: 5 * time.Minute, // last-resort bound; ctx governs per call
}

// NewClient builds a client for the given base URL (e.g.
// "http://127.0.0.1:8444"). A nil httpClient shares one package-wide client
// and its connection pool with every other such Client.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = defaultHTTP
	}
	return &Client{base: baseURL, http: httpClient}
}

func (c *Client) do(ctx context.Context, method, path string, body any, out any, headers ...[2]string) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(marshalJSON(body))
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("cloud client: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for _, h := range headers {
		req.Header.Set(h[0], h[1])
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// A canceled caller is not a transport fault: surface the context
		// error as-is so the provider runtime never retries it.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return &APIError{Code: CodeInternal, Op: method, Message: "transport: " + err.Error(), Retryable: true}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return &APIError{Code: CodeInternal, Op: method, Message: "read response: " + err.Error(), Retryable: true}
	}
	if resp.StatusCode >= 400 {
		var ae APIError
		if json.Unmarshal(data, &ae) == nil && ae.Message != "" {
			if ae.RetryAfter == 0 {
				ae.RetryAfter = retryAfterHeader(resp)
			}
			return &ae
		}
		return &APIError{Code: resp.StatusCode, Op: method,
			Message:    fmt.Sprintf("HTTP %d: %s", resp.StatusCode, string(data)),
			Retryable:  resp.StatusCode == CodeThrottled || resp.StatusCode >= 500,
			RetryAfter: retryAfterHeader(resp)}
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("cloud client: decode response: %w", err)
		}
	}
	return nil
}

// Create implements Interface. The idempotency key travels both in the body
// and as the standard Idempotency-Key header, so intermediaries (and the
// server) can honor it without parsing JSON.
func (c *Client) Create(ctx context.Context, req CreateRequest) (*Resource, error) {
	var headers [][2]string
	if req.IdempotencyKey != "" {
		headers = append(headers, [2]string{"Idempotency-Key", req.IdempotencyKey})
	}
	var w wireResource
	err := c.do(ctx, http.MethodPost, "/v1/resources/"+url.PathEscape(req.Type), wireCreate{
		Region:         req.Region,
		Attrs:          attrsToWire(req.Attrs),
		Principal:      req.Principal,
		IdempotencyKey: req.IdempotencyKey,
	}, &w, headers...)
	if err != nil {
		return nil, err
	}
	return fromWire(w), nil
}

// Get implements Interface.
func (c *Client) Get(ctx context.Context, typ, id string) (*Resource, error) {
	var w wireResource
	err := c.do(ctx, http.MethodGet,
		"/v1/resources/"+url.PathEscape(typ)+"/"+url.PathEscape(id), nil, &w)
	if err != nil {
		return nil, err
	}
	return fromWire(w), nil
}

// Update implements Interface.
func (c *Client) Update(ctx context.Context, req UpdateRequest) (*Resource, error) {
	var w wireResource
	err := c.do(ctx, http.MethodPatch,
		"/v1/resources/"+url.PathEscape(req.Type)+"/"+url.PathEscape(req.ID), wireUpdate{
			Attrs:     attrsToWire(req.Attrs),
			Principal: req.Principal,
		}, &w)
	if err != nil {
		return nil, err
	}
	return fromWire(w), nil
}

// Delete implements Interface.
func (c *Client) Delete(ctx context.Context, typ, id, principal string) error {
	path := "/v1/resources/" + url.PathEscape(typ) + "/" + url.PathEscape(id)
	if principal != "" {
		path += "?principal=" + url.QueryEscape(principal)
	}
	return c.do(ctx, http.MethodDelete, path, nil, nil)
}

// List implements Interface: the unbounded page.
func (c *Client) List(ctx context.Context, typ, region string) ([]*Resource, error) {
	page, err := c.ListPage(ctx, typ, region, 0, "")
	if err != nil {
		return nil, err
	}
	return page.Resources, nil
}

// Health implements Interface.
func (c *Client) Health(ctx context.Context, typ, id string) (*HealthReport, error) {
	var rep HealthReport
	err := c.do(ctx, http.MethodGet,
		"/v1/resources/"+url.PathEscape(typ)+"/"+url.PathEscape(id)+"/health", nil, &rep)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

// Activity implements Interface.
func (c *Client) Activity(ctx context.Context, afterSeq int64) ([]Event, error) {
	var events []Event
	path := "/v1/activity?after=" + strconv.FormatInt(afterSeq, 10)
	if err := c.do(ctx, http.MethodGet, path, nil, &events); err != nil {
		return nil, err
	}
	return events, nil
}

// WaitActivity long-polls GET /v1/events: it blocks server-side up to wait
// for events past afterSeq and returns (nil, nil) on a quiet timeout. The
// caller's ctx must outlive wait (the request context governs the poll).
func (c *Client) WaitActivity(ctx context.Context, afterSeq int64, wait time.Duration) ([]Event, error) {
	var events []Event
	path := "/v1/events?since=" + strconv.FormatInt(afterSeq, 10) +
		"&wait_ms=" + strconv.FormatInt(wait.Milliseconds(), 10)
	if err := c.do(ctx, http.MethodGet, path, nil, &events); err != nil {
		return nil, err
	}
	return events, nil
}

// Metrics fetches the server-side traffic counters.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	var m Metrics
	err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &m)
	return m, err
}

// PrometheusMetrics fetches the server's Prometheus text exposition.
func (c *Client) PrometheusMetrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("cloud client: build request: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("cloud client: GET /metrics: HTTP %d", resp.StatusCode)
	}
	return string(data), nil
}
