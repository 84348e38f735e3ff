package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"time"
)

// StateFunc produces the /debug/state payload: a JSON-marshalable snapshot
// of controller state (per-device aggregate, effective limit, capped
// count, recent decision records and events). Implementations are called from HTTP
// handler goroutines; loop-confined state must be collected via the
// loop (e.g. WallLoop.Call) inside the function.
type StateFunc func() interface{}

// Handler builds the exposition mux:
//
//	GET /metrics      Prometheus text format (version 0.0.4)
//	GET /debug/state  JSON: {"now": ..., "state": <state()>}
//	GET /healthz      200 "ok"
//
// state may be nil, in which case /debug/state carries only the time.
func Handler(s *Sink, state StateFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if s.Enabled() {
			_ = s.Registry().WritePrometheus(w)
		}
	})
	mux.HandleFunc("/debug/state", func(w http.ResponseWriter, req *http.Request) {
		payload := struct {
			Now   time.Time   `json:"now"`
			State interface{} `json:"state,omitempty"`
		}{Now: time.Now()}
		if state != nil {
			payload.State = state()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(payload)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}

// HTTPServer is a running exposition endpoint.
type HTTPServer struct {
	srv  *http.Server
	ln   net.Listener
	addr string
}

// Serve starts the exposition server on addr (":9090", "127.0.0.1:0", ...).
// It returns once the listener is bound; requests are served in background
// goroutines until Close.
func Serve(addr string, s *Sink, state StateFunc) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	hs := &HTTPServer{
		srv:  &http.Server{Handler: Handler(s, state)},
		ln:   ln,
		addr: ln.Addr().String(),
	}
	go func() { _ = hs.srv.Serve(ln) }()
	return hs, nil
}

// Addr returns the bound address.
func (h *HTTPServer) Addr() string { return h.addr }

// Close shuts the server down, closing the listener and idle connections.
func (h *HTTPServer) Close() error { return h.srv.Close() }
