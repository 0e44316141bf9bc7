package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"defectsim/internal/experiments"
	"defectsim/internal/serve"
)

// traceSuite is the traced run: every per-layer metric, measured on the
// inputs of e.seed. It traces the pipeline stage by stage, then a warm
// ring (traceOps operations per path) and a cold ring (traceOps fresh
// keys), with spans around every handler, store call and client
// operation.
func (e *env) traceSuite(ctx context.Context) (report, map[string]*recorder, error) {
	m := metrics{}
	rep := report{Correct: true, Metrics: m}
	parts := map[string]*recorder{"pipeline": newRecorder()}
	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "perfbench: traced %s: %v\n", what, err)
		rep.Correct = false
	}

	rep.Attempted++
	if err := tracePipeline(ctx, e.plan, e.seed, parts["pipeline"], m); err != nil {
		rep.Failed++
		fail("pipeline", err)
	}

	// Warm ring: each path in turn, two clients each.
	wt := newTap(newRecorder())
	parts["serve-warm"] = wt.rec
	o, err := e.ringOpts(wt)
	if err != nil {
		return rep, nil, err
	}
	if err := e.inputs(ctx, "serve-hit"); err != nil {
		return rep, nil, err
	}
	ws, err := setupWarm(ctx, e.warm, o)
	if err != nil {
		return rep, nil, fmt.Errorf("traced warm set-up: %w", err)
	}
	wt.setActive(true)
	for _, path := range warmPaths {
		w := &warmWorkload{ws: ws, path: path, name: "trace-" + path}
		l := measure(ctx, clients, time.Hour, e.plan.traceOps, w.op)
		rep.Attempted += l.attempted
		rep.Failed += l.failed
	}
	wt.setActive(false)
	if err := ws.verify(); err != nil {
		fail("warm", err)
	}
	ws.ring.close()

	// Direct decodes of the warm envelopes: the decode share of a read.
	var decodes []float64
	for _, path := range warmPaths {
		for _, j := range ws.keys[path] {
			d, err := timeMedian(3, func() error {
				_, err := experiments.DecodeCached(ctx, j.nl, j.cfg, j.env)
				return err
			})
			if err != nil {
				return rep, nil, err
			}
			decodes = append(decodes, float64(d)/float64(time.Millisecond))
		}
	}
	m.set("experiments.decode_ms", median(decodes), "ms")

	// Cold ring: fresh keys to their primary owners.
	ct := newTap(newRecorder())
	parts["serve-cold"] = ct.rec
	if o, err = e.ringOpts(ct); err != nil {
		return rep, nil, err
	}
	keys, err := coldKeys(e.plan, e.seed, e.plan.traceOps)
	if err != nil {
		return rep, nil, err
	}
	cs, err := setupCold(ctx, keys, o)
	if err != nil {
		return rep, nil, fmt.Errorf("traced cold set-up: %w", err)
	}
	ct.setActive(true)
	cw := &coldWorkload{cs: cs, seed: e.seed, sample: e.plan.coldSample}
	l := measure(ctx, clients, time.Hour, e.plan.traceOps, cw.op)
	rep.Attempted += l.attempted
	rep.Failed += l.failed
	ct.setActive(false)
	if err := cw.verify(ctx); err != nil {
		fail("cold", err)
	}
	cs.ring.close()

	// Direct cold runs: the compute share of a cold write.
	var runs []float64
	for i, j := range cs.done {
		if i == 4 {
			break
		}
		t0 := time.Now()
		if err := j.compute(ctx); err != nil {
			return rep, nil, err
		}
		runs = append(runs, float64(time.Since(t0))/float64(time.Millisecond))
	}
	if len(runs) > 0 {
		m.set("experiments.run_ms", median(runs), "ms")
	}

	serveLayers(m, wt, ct)
	if rep.Failed > 0 {
		rep.Correct = false
	}
	fmt.Printf("traced suite seed=%d: %d ops, %d failed, correct=%v\n", e.seed, rep.Attempted, rep.Failed, rep.Correct)
	printLayer(m)
	return rep, parts, nil
}

// serveLayers derives the serve, store and cluster metrics from the warm
// tap (reads) and the cold tap (writes).
func serveLayers(m metrics, wt, ct *tap) {
	warmOps := float64(max(len(wt.order), 1))
	coldOps := float64(max(len(ct.order), 1))
	named := func(n string) func(*span) bool { return func(s *span) bool { return s.Name == n } }
	onAccept := func(n string) func(*span) bool {
		return func(s *span) bool { return s.Name == n && s.Node == nodeName(accept) }
	}

	submits := wt.spans(func(s *span) bool { return onAccept("http.submit")(s) && s.Attrs["forwarded"] == nil })
	m.set("serve.submit_ms", median(durMS(submits)), "ms")
	results := wt.spans(onAccept("http.result"))
	m.set("serve.result_ms", median(durMS(results)), "ms")
	m.set("serve.result_bytes", median(attr(results, "bytes")), "bytes")
	var wait, exec []float64
	for _, op := range wt.order {
		if !op.failed && !op.started.IsZero() {
			wait = append(wait, float64(op.started.Sub(op.submitted))/float64(time.Millisecond))
			exec = append(exec, float64(op.finished.Sub(op.started))/float64(time.Millisecond))
		}
	}
	m.set("serve.queue_wait_ms", median(wait), "ms")
	m.set("serve.exec_ms", median(exec), "ms")

	gets := wt.spans(named("store.get"))
	hits := wt.spans(func(s *span) bool { return s.Name == "store.get" && s.Attrs["hit"] == true })
	m.set("store.get_ms", median(durMS(gets)), "ms")
	m.set("store.gets_per_op", float64(len(gets))/warmOps, "count")
	m.set("store.hit_ratio", float64(len(hits))/float64(max(len(gets), 1)), "ratio")
	puts := ct.spans(named("store.put"))
	m.set("store.put_ms", median(durMS(puts)), "ms")
	m.set("store.puts_per_op", float64(len(puts))/coldOps, "count")
	m.set("store.put_bytes", median(attr(puts, "bytes")), "bytes")

	fwds := wt.spans(func(s *span) bool { return s.Name == "http.submit" && s.Attrs["forwarded"] == true })
	polls := wt.spans(func(s *span) bool { return s.Name == "http.status" && s.Attrs["forward_poll"] == true })
	m.set("cluster.forwards_per_op", float64(len(fwds))/warmOps, "count")
	m.set("cluster.status_polls_per_fwd", float64(len(polls))/float64(max(len(fwds), 1)), "count")
	fetches := wt.spans(func(s *span) bool { return s.Name == "http.store_get" && s.Node != nodeName(accept) })
	m.set("cluster.peer_fetch_ms", median(durMS(fetches)), "ms")
	replicas := 0
	for _, op := range wt.order {
		if op.outcome.saw(serve.EventReplicaFetch) {
			replicas++
		}
	}
	m.set("cluster.replica_fetches_per_op", float64(replicas)/warmOps, "count")
	m.set("cluster.replicate_ms", median(durMS(ct.spans(named("http.store_put")))), "ms")
	m.set("cluster.poll_lag_ms", median(pollLags(wt)), "ms")
}

// pollLags returns, for each forwarded operation, the time from the
// owner's job finished_at to the accepting node's first GET of the key
// from the owner's store after it: what the forward poll interval costs.
func pollLags(t *tap) []float64 {
	spans := t.rec.snapshot()
	var lags []float64
	for _, op := range t.order {
		if op.path != pathFwd || op.ownerDone.IsZero() {
			continue
		}
		for _, s := range spans {
			if s.Name != "http.store_get" || s.Node != nodeName(liveOwner) || s.Attrs["key"] != op.key {
				continue
			}
			at := t.rec.epoch.Add(time.Duration(s.StartNS))
			if !at.Before(op.ownerDone) {
				lags = append(lags, float64(at.Sub(op.ownerDone))/float64(time.Millisecond))
				break
			}
		}
	}
	return lags
}
