package server

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"ordo/internal/telemetry"
	"ordo/internal/telemetry/span"
)

// NewAdminHandler builds ordod's admin mux over one server:
//
//	/metrics       Prometheus text exposition of the server's registry:
//	               the counter catalogue, plus the Telemetry histograms
//	/healthz       JSON liveness: 200 while serving, 503 when the WAL
//	               device failed (reads-only) or a drain is in progress
//	/varz          the catalogue as one JSON document (Server.Varz)
//	/trace         the event tracer's ring dump; ?kind= and ?limit=
//	               filter server-side, ?since_ns= is the poll cursor
//	               (pass back the previous dump's now_ns)
//	/spans         the distributed-tracing span ring (404 when tracing
//	               is off); ?trace=<16-hex-digit id> filters to one
//	               trace, ?limit= keeps the newest N
//	/debug/pprof/  the standard profiles, on this mux only — the admin
//	               port works in binaries that never touch DefaultServeMux
//
// The handler is safe to serve before Serve is called and after Shutdown
// returns; endpoints read counters, never live sessions.
func NewAdminHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", telemetry.ContentType)
		_ = s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/varz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Varz())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		var tr *telemetry.Tracer
		if s.cfg.Telemetry != nil {
			tr = s.cfg.Telemetry.tracer
		}
		q := r.URL.Query()
		var sinceNS int64
		if v := q.Get("since_ns"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				http.Error(w, "bad since_ns: "+err.Error(), http.StatusBadRequest)
				return
			}
			sinceNS = n
		}
		limit := 0
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				http.Error(w, "bad limit: "+err.Error(), http.StatusBadRequest)
				return
			}
			limit = n
		}
		// nil tracer dumps an empty document
		body, err := tr.FilteredDumpJSON(q.Get("kind"), sinceNS, limit)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		ring := s.spanRing()
		if ring == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		q := r.URL.Query()
		var trace span.TraceID
		if v := q.Get("trace"); v != "" {
			id, err := strconv.ParseUint(v, 16, 64)
			if err != nil {
				http.Error(w, "bad trace id: "+err.Error(), http.StatusBadRequest)
				return
			}
			trace = span.TraceID(id)
		}
		limit := 0
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				http.Error(w, "bad limit: "+err.Error(), http.StatusBadRequest)
				return
			}
			limit = n
		}
		body, err := ring.DumpJSON(trace, limit)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// healthzBody is the /healthz JSON document. WALUnackedWrites rides along
// because it is the one counter an operator must check before trusting a
// degraded server's reads: it bounds how much acknowledged-looking state
// exists only in memory (DESIGN.md §10).
type healthzBody struct {
	Status           string  `json:"status"`
	Protocol         string  `json:"protocol"`
	WALDegraded      bool    `json:"wal_degraded"`
	WALUnackedWrites uint64  `json:"wal_unacked_writes"`
	ShuttingDown     bool    `json:"shutting_down"`
	BoundaryNS       float64 `json:"boundary_ns,omitempty"`
	UncertainRate    float64 `json:"uncertain_rate,omitempty"`

	// Replication fields, present only on replicated servers. ReplEpoch
	// and ReplWatermarkNS always encode there (no omitempty): an operator
	// deciding whether a node is safe to promote needs to distinguish
	// "epoch 0, watermark 0" from "not replicated".
	ReplRole        string `json:"repl_role,omitempty"`
	ReplEpoch       uint64 `json:"repl_epoch"`
	ReplWatermarkNS uint64 `json:"repl_watermark_ns"`
	ReplLagRecords  uint64 `json:"repl_lag_records,omitempty"`
	ReplContactMS   int64  `json:"repl_contact_ms,omitempty"`
	ReplLagExceeded bool   `json:"repl_lag_exceeded,omitempty"`
	LeaderAddr      string `json:"leader_addr,omitempty"`
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	body := healthzBody{
		Status:           "ok",
		Protocol:         s.cfg.DB.Protocol().String(),
		WALDegraded:      s.Degraded(),
		WALUnackedWrites: s.m.walUnackedWrites.Load(),
		ShuttingDown:     s.inShutdown.Load(),
	}
	if m := s.cfg.Monitor; m != nil {
		cs := m.Snapshot()
		body.BoundaryNS = cs.BoundaryNS
		body.UncertainRate = cs.UncertainRate
	}
	if rs := s.cfg.Repl; rs != nil {
		body.ReplRole = rs.Role().String()
		body.ReplEpoch = rs.Epoch()
		body.ReplWatermarkNS = rs.WatermarkNS()
		body.ReplLagRecords = rs.Lag()
		body.ReplContactMS = rs.ContactAge().Milliseconds()
		body.ReplLagExceeded = rs.LagExceeded()
		body.LeaderAddr = rs.LeaderAddr()
	}
	code := http.StatusOK
	switch {
	case body.WALDegraded:
		body.Status = "degraded"
		code = http.StatusServiceUnavailable
	case body.ShuttingDown:
		body.Status = "shutting_down"
		code = http.StatusServiceUnavailable
	case body.ReplLagExceeded:
		// A follower that lost its leader or fell too far behind must stop
		// looking healthy, so a balancer routes reads elsewhere and an
		// operator notices before promoting a stale replica.
		body.Status = "repl_lagging"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

// AdminServer is the admin HTTP listener's lifecycle handle.
type AdminServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// ServeAdmin listens on addr and serves h in a background goroutine. The
// caller owns the returned handle and must Close it during drain; Close
// waits for the serve goroutine, so the goroutine-leak guard in tests
// holds.
func ServeAdmin(addr string, h http.Handler) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a := &AdminServer{ln: ln, srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(a.done)
		_ = a.srv.Serve(ln)
	}()
	return a, nil
}

// Addr returns the bound listen address (useful with ":0").
func (a *AdminServer) Addr() net.Addr { return a.ln.Addr() }

// Close drains the admin server: graceful shutdown with a short grace
// period (in-flight scrapes finish), then a hard close for stragglers — a
// 30-second pprof profile must not block the daemon's exit.
func (a *AdminServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err := a.srv.Shutdown(ctx)
	if err != nil {
		err = a.srv.Close()
	}
	<-a.done
	return err
}
