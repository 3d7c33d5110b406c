package cloud

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"cloudless/internal/telemetry"
)

// Server exposes a Sim over HTTP with a small JSON API:
//
//	POST   /v1/resources/{type}        create
//	GET    /v1/resources/{type}        list page (?region=&limit=&page_token=)
//	GET    /v1/resources/{type}/{id}   get
//	PATCH  /v1/resources/{type}/{id}   update
//	DELETE /v1/resources/{type}/{id}   delete (?principal=)
//	GET    /v1/resources/{type}/{id}/health   readiness probe
//	POST   /v1/batch/create            bulk create
//	POST   /v1/batch/get               bulk get
//	GET    /v1/activity                activity log (?after=seq)
//	GET    /v1/events                  long-poll event stream (?since=seq&wait_ms=)
//	GET    /v1/metrics                 traffic counters
//	GET    /metrics                    Prometheus text exposition
//	GET    /healthz                    liveness
type Server struct {
	sim *Sim
	log *slog.Logger
	mux *http.ServeMux
}

// NewServer wires a simulator into an HTTP handler.
func NewServer(sim *Sim, logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{sim: sim, log: logger, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/resources/{type}", s.handleCreate)
	s.mux.HandleFunc("GET /v1/resources/{type}", s.handleList)
	s.mux.HandleFunc("GET /v1/resources/{type}/{id}", s.handleGet)
	s.mux.HandleFunc("PATCH /v1/resources/{type}/{id}", s.handleUpdate)
	s.mux.HandleFunc("DELETE /v1/resources/{type}/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/resources/{type}/{id}/health", s.handleHealth)
	s.mux.HandleFunc("POST /v1/batch/create", s.handleBatchCreate)
	s.mux.HandleFunc("POST /v1/batch/get", s.handleBatchGet)
	s.mux.HandleFunc("GET /v1/activity", s.handleActivity)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics", s.handlePrometheus)
	if sim.TelemetryRegistry() == nil {
		// The server is an ops surface: make sure /metrics has a registry to
		// expose even when the embedder didn't attach one.
		sim.AttachTelemetry(telemetry.NewRegistry())
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	var ae *APIError
	if !errors.As(err, &ae) {
		ae = &APIError{Code: CodeInternal, Message: err.Error()}
	}
	status := ae.Code
	if status < 400 || status > 599 {
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	if status == CodeThrottled {
		// Whole seconds for plain HTTP clients; the JSON body carries the
		// precise hint for the cloudless client.
		secs := int(ae.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.WriteHeader(status)
	_, _ = w.Write(marshalJSON(ae))
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(marshalJSON(v))
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	typ := r.PathValue("type")
	var body wireCreate
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body); err != nil {
		s.writeError(w, &APIError{Code: CodeInvalid, Op: "create", Type: typ,
			Message: "MalformedRequest: " + err.Error()})
		return
	}
	idemKey := body.IdempotencyKey
	if idemKey == "" {
		idemKey = r.Header.Get("Idempotency-Key")
	}
	res, err := s.sim.Create(r.Context(), CreateRequest{
		Type:           typ,
		Region:         body.Region,
		Attrs:          attrsFromWire(body.Attrs),
		Principal:      principalOf(r, body.Principal),
		IdempotencyKey: idemKey,
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.log.Info("created", "type", typ, "id", res.ID, "region", res.Region)
	s.writeJSON(w, http.StatusCreated, toWire(res))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	res, err := s.sim.Get(r.Context(), r.PathValue("type"), r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, toWire(res))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	typ := r.PathValue("type")
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, &APIError{Code: CodeInvalid, Op: "list", Type: typ,
				Message: "MalformedRequest: invalid limit parameter"})
			return
		}
		limit = n
	}
	page, err := s.sim.ListPage(r.Context(), typ, q.Get("region"), limit, q.Get("page_token"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	out := wireListPage{Resources: make([]wireResource, len(page.Resources)), NextPageToken: page.NextPageToken}
	for i, res := range page.Resources {
		out.Resources[i] = toWire(res)
	}
	s.writeJSON(w, http.StatusOK, out)
}

// maxBatchBody bounds batch request bodies; batches carry up to maxBatchItems
// attribute maps, so they get a larger allowance than single-item calls.
const maxBatchBody = 16 << 20

func (s *Server) handleBatchCreate(w http.ResponseWriter, r *http.Request) {
	var body wireBatchCreate
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBatchBody)).Decode(&body); err != nil {
		s.writeError(w, &APIError{Code: CodeInvalid, Op: "batch_create",
			Message: "MalformedRequest: " + err.Error()})
		return
	}
	reqs := make([]CreateRequest, len(body.Items))
	for i, item := range body.Items {
		reqs[i] = CreateRequest{
			Type:           item.Type,
			Region:         item.Region,
			Attrs:          attrsFromWire(item.Attrs),
			Principal:      principalOf(r, item.Principal),
			IdempotencyKey: item.IdempotencyKey,
		}
	}
	results, err := s.sim.BatchCreate(r.Context(), reqs)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.log.Info("batch create", "items", len(reqs))
	s.writeJSON(w, http.StatusOK, toWireBatchResults(results))
}

func (s *Server) handleBatchGet(w http.ResponseWriter, r *http.Request) {
	var body wireBatchGet
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBatchBody)).Decode(&body); err != nil {
		s.writeError(w, &APIError{Code: CodeInvalid, Op: "batch_get",
			Message: "MalformedRequest: " + err.Error()})
		return
	}
	results, err := s.sim.BatchGet(r.Context(), body.Keys)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, toWireBatchResults(results))
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	typ, id := r.PathValue("type"), r.PathValue("id")
	var body wireUpdate
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body); err != nil {
		s.writeError(w, &APIError{Code: CodeInvalid, Op: "update", Type: typ, ID: id,
			Message: "MalformedRequest: " + err.Error()})
		return
	}
	res, err := s.sim.Update(r.Context(), UpdateRequest{
		Type: typ, ID: id,
		Attrs:     attrsFromWire(body.Attrs),
		Principal: principalOf(r, body.Principal),
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, toWire(res))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	typ, id := r.PathValue("type"), r.PathValue("id")
	err := s.sim.Delete(r.Context(), typ, id, principalOf(r, r.URL.Query().Get("principal")))
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	rep, err := s.sim.Health(r.Context(), r.PathValue("type"), r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleActivity(w http.ResponseWriter, r *http.Request) {
	after := int64(0)
	if q := r.URL.Query().Get("after"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			s.writeError(w, &APIError{Code: CodeInvalid, Op: "activity",
				Message: "MalformedRequest: invalid after parameter"})
			return
		}
		after = n
	}
	events, err := s.sim.Activity(r.Context(), after)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if events == nil {
		events = []Event{}
	}
	s.writeJSON(w, http.StatusOK, events)
}

// maxEventWait caps the long-poll hold time so proxies and the server's own
// WriteTimeout never see an indefinitely parked handler.
const maxEventWait = 60 * time.Second

// defaultEventWait is the hold time when the client sends no wait_ms.
const defaultEventWait = 25 * time.Second

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since := int64(0)
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			s.writeError(w, &APIError{Code: CodeInvalid, Op: "events",
				Message: "MalformedRequest: invalid since parameter"})
			return
		}
		since = n
	}
	wait := defaultEventWait
	if v := q.Get("wait_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			s.writeError(w, &APIError{Code: CodeInvalid, Op: "events",
				Message: "MalformedRequest: invalid wait_ms parameter"})
			return
		}
		wait = time.Duration(ms) * time.Millisecond
		if wait > maxEventWait {
			wait = maxEventWait
		}
	}
	events, err := s.sim.WaitActivity(r.Context(), since, wait)
	if err != nil {
		// Client went away mid-poll; nothing useful to write.
		if r.Context().Err() != nil {
			return
		}
		s.writeError(w, err)
		return
	}
	if events == nil {
		events = []Event{}
	}
	s.writeJSON(w, http.StatusOK, events)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.sim.Metrics())
}

func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.sim.TelemetryRegistry().Prometheus(w)
}

// principalOf prefers the explicit body/query principal, then the
// X-Principal header.
func principalOf(r *http.Request, explicit string) string {
	if explicit != "" {
		return explicit
	}
	return r.Header.Get("X-Principal")
}

// ListenAndServe runs the server until the listener fails. Addr is a
// host:port. The returned http.Server has sane timeouts for a control-plane
// API.
func (s *Server) ListenAndServe(addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      5 * time.Minute, // creates can be slow at scale 1.0
		IdleTimeout:       2 * time.Minute,
	}
	s.log.Info("cloud simulator listening", "addr", addr)
	return srv.ListenAndServe()
}
