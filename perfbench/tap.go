package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"time"

	"defectsim/internal/cluster"
	"defectsim/internal/store"
)

// tap records spans from outside the program: around each node's HTTP
// handler, around each node's store, and around each client operation.
// One tap covers one ring; it records only while active, so set-up
// traffic stays out of the per-layer numbers. All methods are no-ops on a
// nil tap.
type tap struct {
	rec *recorder

	mu     sync.Mutex
	active bool
	ops    map[string]*tapOp // request ID → client operation
	order  []*tapOp
	// fwd maps "<node>/<job id>" of a forwarded submission to the
	// originating request ID, so the owner-side status polls, which carry
	// no request ID, are attributed to it.
	fwd map[string]string
}

// tapOp is one traced client operation.
type tapOp struct {
	path, key string
	id        int64 // root span ID
	start     time.Time
	outcome   outcome
	failed    bool
	// ownerDone is the owner's finished_at for a forwarded job.
	ownerDone time.Time
	// submitted/started/finished are the accepting node's job stamps.
	submitted, started, finished time.Time
}

func newTap(rec *recorder) *tap {
	return &tap{rec: rec, ops: map[string]*tapOp{}, fwd: map[string]string{}}
}

func (t *tap) setActive(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.active = on
	t.mu.Unlock()
}

func (t *tap) isActive() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active
}

// opStart registers a client operation before its first request.
func (t *tap) opStart(rid, path, key string) {
	if !t.isActive() {
		return
	}
	op := &tapOp{path: path, key: key, id: t.rec.reserve(), start: time.Now()}
	t.mu.Lock()
	t.ops[rid] = op
	t.order = append(t.order, op)
	t.mu.Unlock()
}

// opDone closes a client operation's root span.
func (t *tap) opDone(rid string, o outcome, err error) {
	op := t.op(rid)
	if op == nil {
		return
	}
	t.mu.Lock()
	op.outcome, op.failed = o, err != nil
	t.mu.Unlock()
	t.rec.fill(op.id, span{Name: "op." + op.path, RequestID: rid,
		StartNS: t.rec.ns(op.start), EndNS: t.rec.ns(op.start.Add(o.lat)),
		Attrs: map[string]any{"key": op.key, "events": o.events, "failed": err != nil}})
}

// jobTimes records the accepting node's job stamps for an operation.
func (t *tap) jobTimes(rid string, submitted, started, finished time.Time) {
	if op := t.op(rid); op != nil {
		t.mu.Lock()
		op.submitted, op.started, op.finished = submitted, started, finished
		t.mu.Unlock()
	}
}

func (t *tap) op(rid string) *tapOp {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ops[rid]
}

func (t *tap) opSpan(rid string) int64 {
	if op := t.op(rid); op != nil {
		return op.id
	}
	return 0
}

// route names the API call a request makes.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/store/"):
		return "store_" + strings.ToLower(r.Method)
	case p == "/v1/pipeline":
		return "submit"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasPrefix(p, "/v1/pipeline/"):
		return "status"
	}
	return "other"
}

// captureWriter records a response's status and size, and keeps its body
// when asked to.
type captureWriter struct {
	http.ResponseWriter
	status int
	n      int
	body   *bytes.Buffer
}

func (w *captureWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *captureWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.body != nil {
		w.body.Write(b)
	}
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

func (w *captureWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

type spanKey struct{}

// handler wraps one node's HTTP handler with a span per request.
func (t *tap) handler(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.isActive() {
			h.ServeHTTP(w, r)
			return
		}
		rt := route(r)
		rid := r.Header.Get("X-Request-ID")
		forwarded := r.Header.Get(cluster.ForwardedHeader) != ""
		cw := &captureWriter{ResponseWriter: w}
		if (rt == "submit" && forwarded) || rt == "status" {
			cw.body = &bytes.Buffer{}
		}
		id := t.rec.reserve()
		t0 := time.Now()
		h.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t1 := time.Now()
		attrs := map[string]any{"status": cw.status, "bytes": cw.n}
		if forwarded {
			attrs["forwarded"] = true
		}
		if strings.HasPrefix(rt, "store_") {
			attrs["key"] = strings.TrimPrefix(r.URL.Path, "/v1/store/")
		}
		switch {
		case rt == "submit" && forwarded:
			var js struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(cw.body.Bytes(), &js) == nil && js.ID != "" {
				t.mu.Lock()
				t.fwd[node+"/"+js.ID] = rid
				t.mu.Unlock()
				attrs["job"] = js.ID
			}
		case rt == "status" && rid == "":
			jobID := strings.TrimPrefix(r.URL.Path, "/v1/pipeline/")
			t.mu.Lock()
			rid = t.fwd[node+"/"+jobID]
			t.mu.Unlock()
			if rid != "" {
				attrs["forward_poll"] = true
				var st struct {
					State    string    `json:"state"`
					Finished time.Time `json:"finished_at"`
				}
				if json.Unmarshal(cw.body.Bytes(), &st) == nil && st.State == "done" {
					if op := t.op(rid); op != nil {
						t.mu.Lock()
						op.ownerDone = st.Finished
						t.mu.Unlock()
					}
				}
			}
		}
		t.rec.fill(id, span{Parent: t.opSpan(rid), Name: "http." + rt, Node: node, RequestID: rid,
			StartNS: t.rec.ns(t0), EndNS: t.rec.ns(t1), Attrs: attrs})
	})
}

// tapStore wraps one node's store with a span per operation. Operations
// served under a traced request are parented to its handler span.
type tapStore struct {
	t    *tap
	node string
	st   store.Store
}

func (t *tap) store(node string, st store.Store) store.Store {
	return &tapStore{t: t, node: node, st: st}
}

func (s *tapStore) Name() string { return s.st.Name() }

func (s *tapStore) record(ctx context.Context, name, key string, t0 time.Time, attrs map[string]any) {
	if !s.t.isActive() {
		return
	}
	parent, _ := ctx.Value(spanKey{}).(int64)
	attrs["key"] = key
	s.t.rec.add(span{Parent: parent, Name: name, Node: s.node,
		StartNS: s.t.rec.ns(t0), EndNS: s.t.rec.ns(time.Now()), Attrs: attrs})
}

func (s *tapStore) Get(ctx context.Context, key string) ([]byte, error) {
	t0 := time.Now()
	data, err := s.st.Get(ctx, key)
	s.record(ctx, "store.get", key, t0, map[string]any{"hit": err == nil, "bytes": len(data)})
	return data, err
}

func (s *tapStore) Put(ctx context.Context, key string, data []byte) error {
	t0 := time.Now()
	err := s.st.Put(ctx, key, data)
	s.record(ctx, "store.put", key, t0, map[string]any{"bytes": len(data), "ok": err == nil})
	return err
}

func (s *tapStore) Stat(ctx context.Context, key string) (bool, error) {
	t0 := time.Now()
	ok, err := s.st.Stat(ctx, key)
	s.record(ctx, "store.stat", key, t0, map[string]any{"hit": ok})
	return ok, err
}

// spans returns the completed spans of this tap that match.
func (t *tap) spans(match func(*span) bool) []*span {
	var out []*span
	for _, s := range t.rec.snapshot() {
		if s.Name != "" && match(s) {
			out = append(out, s)
		}
	}
	return out
}

// durMS returns the spans' durations in milliseconds.
func durMS(ss []*span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / float64(time.Millisecond)
	}
	return out
}

// attr returns a numeric attribute of the spans that carry it.
func attr(ss []*span, name string) []float64 {
	var out []float64
	for _, s := range ss {
		if v, ok := s.Attrs[name].(int); ok {
			out = append(out, float64(v))
		}
	}
	return out
}
