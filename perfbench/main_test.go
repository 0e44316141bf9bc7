package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"defectsim/internal/experiments"
)

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func smokeEnv(t *testing.T) *env {
	return &env{plan: smokePlan(), seed: 7, seconds: time.Second, workdir: t.TempDir()}
}

func sameNames(t *testing.T, what string, m metrics, want []string) {
	t.Helper()
	var got []string
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s reports %v, BENCHMARK.json declares %v", what, got, want)
	}
}

// TestSmokeWorkloads drives every workload and every check on c17-sized
// inputs.
func TestSmokeWorkloads(t *testing.T) {
	endToEnd, _ := benchmarkNames(t)
	e := smokeEnv(t)
	for _, w := range workloads {
		rep, err := e.runWorkload(context.Background(), w)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed", w, rep.Correct, rep.Failed, rep.Attempted)
		}
		sameNames(t, w, rep.Metrics, endToEnd)
		for name, m := range rep.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w, name, m.Value)
			}
		}
	}
}

// TestSmokeTraced runs the traced suite and checks that it reports every
// per-layer metric and spans for each part.
func TestSmokeTraced(t *testing.T) {
	_, perLayer := benchmarkNames(t)
	rep, parts, err := smokeEnv(t).traceSuite(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Errorf("traced: correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
	}
	sameNames(t, "traced", rep.Metrics, perLayer)
	for _, part := range []string{"pipeline", "serve-warm", "serve-cold"} {
		if parts[part] == nil || len(parts[part].snapshot()) == 0 {
			t.Errorf("no spans for %s", part)
		}
	}
	path := t.TempDir() + "/spans.json"
	if err := writeSpans(path, parts); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptPipelineCounted flips one detection index in every run after
// the first: each of those runs must count as failed.
func TestCorruptPipelineCounted(t *testing.T) {
	e := smokeEnv(t)
	var runs atomic.Int64
	e.mutate = func(p *experiments.Pipeline) {
		if runs.Add(1) > 1 {
			p.SwitchRes.DetectedAt[0]++
		}
	}
	rep, err := e.runWorkload(context.Background(), "pipeline-c432")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 || rep.Failed != rep.Attempted-1 {
		t.Errorf("correct %v, %d of %d failed; want all but the first failed", rep.Correct, rep.Failed, rep.Attempted)
	}
}

// TestCorruptServedThetaCounted makes the accepting node answer every
// timed read with a Θ off by one part in 10^9: each read must count as
// failed.
func TestCorruptServedThetaCounted(t *testing.T) {
	e := smokeEnv(t)
	e.wrap = func(node int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if node != accept || !strings.HasSuffix(r.URL.Path, "/result") || r.Header.Get("X-Request-ID") == "warmup" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var res map[string]any
			body := rec.Body.Bytes()
			if json.Unmarshal(body, &res) == nil {
				if th, ok := res["theta_final"].(float64); ok {
					res["theta_final"] = th * (1 + 1e-9)
					body, _ = json.Marshal(res)
				}
			}
			w.WriteHeader(rec.Code)
			_, _ = bytes.NewReader(body).WriteTo(w)
		})
	}
	rep, err := e.runWorkload(context.Background(), "serve-hit")
	if err == nil {
		t.Fatalf("run with every read corrupted succeeded: %+v", rep)
	}
	if rep.Correct || rep.Failed == 0 || rep.Failed != rep.Attempted {
		t.Errorf("correct %v, %d of %d failed; want all failed", rep.Correct, rep.Failed, rep.Attempted)
	}
}
