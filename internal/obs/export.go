package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Event is one record of the JSONL trace stream. Span events carry the
// phase name, duration and byte delta; sample events carry the runtime
// sampler's observation; the final summary event carries the
// cumulative counters, phase aggregates, and latency histograms
// (schema: docs/FORMAT.md §6).
type Event struct {
	TimeUnixNano int64                `json:"ts"`
	Ev           string               `json:"ev"` // "span" | "sample" | "summary"
	Name         string               `json:"name,omitempty"`
	DurNanos     int64                `json:"dur_ns,omitempty"`
	BytesDelta   int64                `json:"bytes_delta,omitempty"`
	CurBytes     int64                `json:"cur_bytes"`
	PeakBytes    int64                `json:"peak_bytes"`
	MaxDepth     int64                `json:"max_depth,omitempty"`
	Counters     map[string]int64     `json:"counters,omitempty"`
	Phases       map[string]PhaseStat `json:"phases,omitempty"`
	Hists        map[string]HistStat  `json:"hists,omitempty"`
	// Runtime sampler fields (sample events only).
	HeapBytes    uint64 `json:"heap_bytes,omitempty"`
	Goroutines   int    `json:"goroutines,omitempty"`
	NumGC        uint32 `json:"num_gc,omitempty"`
	GCPauseNanos uint64 `json:"gc_pause_ns,omitempty"`
}

// EventSink receives trace events. Implementations must be safe for
// concurrent use; spans may end on several mining workers at once.
type EventSink interface {
	Record(Event)
}

// JSONLSink serializes events as one JSON object per line. Encoding
// errors are dropped: tracing must never fail a mining run.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink wraps w. The caller owns w's lifetime (and buffering —
// wrap a bufio.Writer for high-rate traces) and must keep it open
// until the run's final EmitSummary.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Record implements EventSink.
func (s *JSONLSink) Record(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.enc.Encode(e)
}

// CollectSink retains every event in memory, for tests.
type CollectSink struct {
	mu     sync.Mutex
	Events []Event
}

// Record implements EventSink.
func (s *CollectSink) Record(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Events = append(s.Events, e)
}

// All returns a copy of the retained events.
func (s *CollectSink) All() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.Events...)
}

// Publish registers the recorder's snapshot as the expvar variable
// name, making it visible on any expvar endpoint. Publishing the same
// name twice is a no-op (expvar itself would panic), so a process may
// call Publish once per run with a fixed name.
func (r *Recorder) Publish(name string) {
	if r == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// Server is the opt-in observability HTTP endpoint of a long mining
// run: expvar under /debug/vars, the pprof profile family under
// /debug/pprof/, the recorder snapshot as JSON under /metrics, and the
// Prometheus text exposition under /metrics/prometheus.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Serve starts the endpoint on addr (e.g. "localhost:6060"; a ":0"
// port picks a free one, see Addr). It returns once the listener is
// bound; requests are served on a background goroutine until Close.
func Serve(addr string, r *Recorder) (*Server, error) {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/metrics/prometheus", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{srv: &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}, ln: ln}
	// The server goroutine deliberately detaches: it lives until Close
	// shuts the http.Server down, which unblocks Serve and ends it —
	// joining it would couple every run to the debug endpoint's
	// lifetime.
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
