package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded around a call into the program:
// a pipeline stage, an HTTP request one node handled, a store operation,
// or a client operation. Spans of one served request share RequestID.
type span struct {
	ID        int64          `json:"id"`
	Parent    int64          `json:"parent,omitempty"`
	Name      string         `json:"name"`
	Node      string         `json:"node,omitempty"`
	RequestID string         `json:"request_id,omitempty"`
	StartNS   int64          `json:"start_ns"`
	EndNS     int64          `json:"end_ns"`
	Attrs     map[string]any `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory for the whole run; write dumps them at
// exit. A nil recorder records nothing, which is how untraced runs skip
// the bookkeeping entirely.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []*span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int64(len(r.spans) + 1)
	r.spans = append(r.spans, &s)
}

// reserve allocates the ID of a span that is still open, so that its
// children can name it as parent; fill completes it.
func (r *recorder) reserve() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, &span{})
	return int64(len(r.spans))
}

func (r *recorder) fill(id int64, s span) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = id
	*r.spans[id-1] = s
}

// ns converts a wall-clock instant to nanoseconds since the epoch.
func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// snapshot returns a copy of the recorded span list.
func (r *recorder) snapshot() []*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children, keyed by span ID.
func selfTimes(spans []*span) map[int64]time.Duration {
	kids := map[int64][]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNS < cs[j].StartNS })
		covered, end := int64(0), s.StartNS
		for _, c := range cs {
			lo, hi := max(c.StartNS, end), min(c.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// writeSpans dumps the spans of several recorders, with their self
// times, as one JSON object keyed by part name.
func writeSpans(path string, parts map[string]*recorder) error {
	type row struct {
		*span
		SelfNS int64 `json:"self_ns"`
	}
	out := map[string][]row{}
	for name, r := range parts {
		var spans []*span
		for _, s := range r.snapshot() {
			if s.Name != "" { // skip spans reserved but never completed
				spans = append(spans, s)
			}
		}
		self := selfTimes(spans)
		for _, s := range spans {
			out[name] = append(out[name], row{s, self[s.ID].Nanoseconds()})
		}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
