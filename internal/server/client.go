package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"cloudless/internal/jobs"
	"cloudless/internal/state"
	"cloudless/internal/statedb"
)

// Client retry defaults: enough cumulative backoff (~10s) to ride through
// a daemon restart plus its startup recovery pass.
const (
	defaultRetries   = 8
	defaultRetryBase = 100 * time.Millisecond
	maxRetryDelay    = 3 * time.Second
)

// Client is the Go client for the cloudlessd API (cloudlessctl's remote
// mode and the test/bench harnesses ride on it). Requests retry with
// exponential backoff — honoring Retry-After on 429/503 — so callers ride
// through a daemon restart; POSTs are made retry-safe by idempotency keys
// (SubmitJob generates one when the caller didn't).
type Client struct {
	base    string
	token   string
	http    *http.Client
	retries int
	base0   time.Duration
}

// NewClient builds a client for the server at base (e.g.
// "http://127.0.0.1:8445"). token may be empty when the server runs
// without auth.
func NewClient(base, token string, hc *http.Client) *Client {
	if hc == nil {
		// Timeout must exceed the long-poll ceiling.
		hc = &http.Client{Timeout: maxEventWait + 30*time.Second}
	}
	return &Client{base: base, token: token, http: hc, retries: defaultRetries, base0: defaultRetryBase}
}

// WithRetries tunes the retry budget (n = extra attempts after the first;
// 0 disables retrying) and the backoff base. Returns the client.
func (c *Client) WithRetries(n int, base time.Duration) *Client {
	c.retries = n
	if base > 0 {
		c.base0 = base
	}
	return c
}

// APIError is a non-2xx response.
type APIError struct {
	Code    int
	Message string
	// RetryAfter carries the response's Retry-After header (0 = absent).
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("cloudlessd: %s (HTTP %d)", e.Message, e.Code)
}

// do runs one request with retries, decoding a JSON response into out
// (nil discards). Transport errors (connection refused mid-restart) are
// retried for every method: GETs and DELETEs are idempotent by nature and
// the POST bodies this client sends are idempotent by key (job submit,
// cancel) or by name conflict (workspace create).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var raw []byte
	if in != nil {
		var err error
		if raw, err = json.Marshal(in); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		lastErr = c.once(ctx, method, path, raw, in != nil, out)
		if lastErr == nil {
			return nil
		}
		if ctx.Err() != nil || attempt >= c.retries {
			return lastErr
		}
		delay := c.base0 << attempt
		if delay > maxRetryDelay {
			delay = maxRetryDelay
		}
		if ae, ok := lastErr.(*APIError); ok {
			switch ae.Code {
			case http.StatusTooManyRequests, http.StatusBadGateway,
				http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				if ae.RetryAfter > 0 {
					delay = ae.RetryAfter
				}
			default:
				return lastErr // semantic error; retrying won't change it
			}
		}
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return lastErr
		}
	}
}

// once runs a single request attempt.
func (c *Client) once(ctx context.Context, method, path string, raw []byte, hasBody bool, out any) error {
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	respRaw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		apiErr := &APIError{Code: resp.StatusCode, Message: string(respRaw)}
		var ae apiError
		if json.Unmarshal(respRaw, &ae) == nil && ae.Error != "" {
			apiErr.Message = ae.Error
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(respRaw, out)
}

// newIdemKey generates a random idempotency key for a submit.
func newIdemKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a time-based key; uniqueness, not secrecy, is the goal.
		return fmt.Sprintf("idem-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Healthz checks server liveness.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// ListWorkspaces returns the workspace names this principal can access.
func (c *Client) ListWorkspaces(ctx context.Context) ([]string, error) {
	var out struct {
		Workspaces []string `json:"workspaces"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/workspaces", nil, &out)
	return out.Workspaces, err
}

// CreateWorkspace opens a workspace on the server.
func (c *Client) CreateWorkspace(ctx context.Context, req CreateWorkspaceRequest) (WorkspaceInfo, error) {
	var out WorkspaceInfo
	err := c.do(ctx, http.MethodPost, "/v1/workspaces", req, &out)
	return out, err
}

// GetWorkspace describes a workspace.
func (c *Client) GetWorkspace(ctx context.Context, name string) (WorkspaceInfo, error) {
	var out WorkspaceInfo
	err := c.do(ctx, http.MethodGet, "/v1/workspaces/"+url.PathEscape(name), nil, &out)
	return out, err
}

// DeleteWorkspace drain-closes a workspace.
func (c *Client) DeleteWorkspace(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/workspaces/"+url.PathEscape(name), nil, nil)
}

// SubmitJob queues a lifecycle job and returns its initial status. When
// the request has no idempotency key the client generates one, so a retry
// (transport error, 429 backpressure, daemon restart) dedups to the
// original job instead of submitting the work twice.
func (c *Client) SubmitJob(ctx context.Context, ws string, req JobRequest) (JobStatus, error) {
	if req.IdemKey == "" {
		req.IdemKey = newIdemKey()
	}
	var out JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/workspaces/"+url.PathEscape(ws)+"/jobs", req, &out)
	return out, err
}

// GetJob fetches a job's status; waitMS > 0 long-polls for completion.
func (c *Client) GetJob(ctx context.Context, ws, id string, waitMS int) (JobStatus, error) {
	path := "/v1/workspaces/" + url.PathEscape(ws) + "/jobs/" + url.PathEscape(id)
	if waitMS > 0 {
		path += "?wait_ms=" + strconv.Itoa(waitMS)
	}
	var out JobStatus
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// WaitJob polls until the job is terminal or ctx is done.
func (c *Client) WaitJob(ctx context.Context, ws, id string) (JobStatus, error) {
	for {
		st, err := c.GetJob(ctx, ws, id, 10_000)
		if err != nil {
			return st, err
		}
		if st.Status.Terminal() {
			return st, nil
		}
		if err := ctx.Err(); err != nil {
			return st, err
		}
	}
}

// ListJobs lists the workspace's jobs, newest first.
func (c *Client) ListJobs(ctx context.Context, ws string) ([]jobs.View, error) {
	var out struct {
		Jobs []jobs.View `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/workspaces/"+url.PathEscape(ws)+"/jobs", nil, &out)
	return out.Jobs, err
}

// CancelJob cancels a queued or running job.
func (c *Client) CancelJob(ctx context.Context, ws, id string) (JobStatus, error) {
	var out JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/workspaces/"+url.PathEscape(ws)+"/jobs/"+url.PathEscape(id)+"/cancel", struct{}{}, &out)
	return out, err
}

// PlanArtifact fetches the diff artifact a plan job stored.
func (c *Client) PlanArtifact(ctx context.Context, ws, id string) (PlanSummary, error) {
	var out PlanSummary
	err := c.do(ctx, http.MethodGet, "/v1/workspaces/"+url.PathEscape(ws)+"/jobs/"+url.PathEscape(id)+"/plan", nil, &out)
	return out, err
}

// Events long-polls the workspace event stream from a watermark. Resume by
// passing the returned page's Next as the next call's since.
func (c *Client) Events(ctx context.Context, ws string, since int64, wait time.Duration) (EventsPage, error) {
	path := fmt.Sprintf("/v1/workspaces/%s/events?since=%d", url.PathEscape(ws), since)
	if wait > 0 {
		path += "&wait_ms=" + strconv.FormatInt(wait.Milliseconds(), 10)
	}
	var out EventsPage
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// History lists the serials the workspace's time machine can read, oldest
// first: the targets a rollback job's ToSerial accepts.
func (c *Client) History(ctx context.Context, ws string) ([]statedb.CommitInfo, error) {
	var out struct {
		Commits []statedb.CommitInfo `json:"commits"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/workspaces/"+url.PathEscape(ws)+"/history", nil, &out)
	return out.Commits, err
}

// Metrics fetches the aggregated Prometheus scrape. Like every other
// route it is authenticated when the server has tokens configured, and the
// scrape only contains workspaces this principal can access.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode >= 300 {
		return "", &APIError{Code: resp.StatusCode, Message: string(raw)}
	}
	return string(raw), nil
}

// State fetches the workspace's golden state.
func (c *Client) State(ctx context.Context, ws string) (*state.State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/workspaces/"+url.PathEscape(ws)+"/state", nil)
	if err != nil {
		return nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, &APIError{Code: resp.StatusCode, Message: string(raw)}
	}
	return state.Decode(raw)
}

// ResultAs decodes a JobStatus result (a map after JSON round-tripping)
// into the kind's typed summary.
func ResultAs[T any](st JobStatus) (T, error) {
	var out T
	raw, err := json.Marshal(st.Result)
	if err != nil {
		return out, err
	}
	err = json.Unmarshal(raw, &out)
	return out, err
}
