package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"defectsim/internal/cluster"
	"defectsim/internal/experiments"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
	"defectsim/internal/serve"
	"defectsim/internal/store"
)

// The served workloads run a 3-node ring in this process, shaped like a
// dlprojd fleet started with -rf 2 -workers 1 -sim-workers 1 and the
// default cluster client options (25 ms forward poll). Each node is a
// serve.Server behind its own httptest listener over an FS store.

const (
	ringSize  = 3
	ringRF    = 2
	accept    = 0 // the node the warm clients talk to
	liveOwner = 1 // a live node owning forwarded keys
	deadNode  = 2 // the node stopped before warm traffic
	clients   = 2 // closed-loop client goroutines of the served workloads
)

func nodeName(i int) string { return fmt.Sprintf("node-%d", i) }

// node is one ring member.
type node struct {
	name string
	fs   *store.FS // the raw store, for set-up writes and checks
	cl   *cluster.Cluster
	s    *serve.Server
	ts   *httptest.Server
	down bool
}

// ring is the in-process fleet plus the benchmark's client.
type ring struct {
	nodes  []*node
	client *http.Client
	tap    *tap // nil in untraced runs
}

// ringOptions configure startRing.
type ringOptions struct {
	dir string
	tap *tap
	// wrap, when set, wraps each node's handler (tests corrupt responses
	// with it).
	wrap func(node int, h http.Handler) http.Handler
}

func startRing(o ringOptions) (*ring, error) {
	r := &ring{tap: o.tap, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients},
	}}
	handlers := make([]atomic.Value, ringSize)
	for i := 0; i < ringSize; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			h, _ := handlers[i].Load().(http.Handler)
			if h == nil {
				http.Error(w, "node starting", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, req)
		}))
		r.nodes = append(r.nodes, &node{name: nodeName(i), ts: ts})
	}
	var err error
	for i, nd := range r.nodes {
		var specs []cluster.PeerSpec
		for j, other := range r.nodes {
			if j != i {
				specs = append(specs, cluster.PeerSpec{Name: other.name, URL: other.ts.URL})
			}
		}
		tr := obs.New()
		nd.cl, err = cluster.New(nd.name, specs, tr.Metrics(), cluster.Options{RF: ringRF})
		if err != nil {
			r.close()
			return nil, err
		}
		dir := filepath.Join(o.dir, nd.name)
		if nd.fs, err = store.NewFS(filepath.Join(dir, "store"), nil); err != nil {
			r.close()
			return nil, err
		}
		var st store.Store = nd.fs
		if o.tap != nil {
			st = o.tap.store(nd.name, nd.fs)
		}
		nd.s = serve.New(serve.Config{
			Workers:    1,
			SimWorkers: 1,
			Store:      st,
			Cluster:    nd.cl,
			SpoolDir:   filepath.Join(dir, "spool"),
			Obs:        tr,
		})
		var h http.Handler = nd.s.Handler()
		if o.tap != nil {
			h = o.tap.handler(nd.name, h)
		}
		if o.wrap != nil {
			h = o.wrap(i, h)
		}
		handlers[i].Store(h)
	}
	return r, nil
}

// stop drains node i and closes its listener: peers then get connection
// refused, as from a dead process.
func (r *ring) stop(i int) {
	nd := r.nodes[i]
	if nd.down {
		return
	}
	nd.down = true
	if nd.s != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		nd.s.Drain(ctx)
		cancel()
	}
	nd.ts.Close()
}

func (r *ring) close() {
	for i := range r.nodes {
		r.stop(i)
	}
	r.client.CloseIdleConnections()
}

// members is the ring of node names: ownership is a function of the
// names alone, so inputs can be drawn before any node starts.
var members = func() *cluster.Ring {
	names := make([]string, ringSize)
	for i := range names {
		names[i] = nodeName(i)
	}
	r, err := cluster.NewRing(names)
	if err != nil {
		panic(err) // three distinct fixed names
	}
	return r
}()

// ownersOf returns the rf owners of a key, primary first.
func ownersOf(key string) []int {
	var out []int
	for _, name := range members.OwnersFor(key, ringRF) {
		for i := 0; i < ringSize; i++ {
			if nodeName(i) == name {
				out = append(out, i)
			}
		}
	}
	return out
}

// computed sums serve_pipeline_computed_total over the live nodes: the
// count of jobs that ran a pipeline instead of adopting a stored result.
func (r *ring) computed() int64 {
	var n int64
	for _, nd := range r.nodes {
		if !nd.down {
			n += nd.s.Metrics().Counter("serve_pipeline_computed_total").Value()
		}
	}
	return n
}

// job is one pipeline configuration as the client submits it, with its
// cache key and the values a direct experiments.RunCtx produced.
type job struct {
	body   []byte
	key    string
	owners []int
	want   jobValues
	cfg    experiments.Config
	nl     *netlist.Netlist
	p      *experiments.Pipeline
	env    []byte // p's EncodeCache envelope, for warm keys
}

// jobValues are the result fields the benchmark checks exactly.
type jobValues struct {
	Vectors         int     `json:"vectors"`
	StuckAtCoverage float64 `json:"stuck_at_coverage"`
	ThetaFinal      float64 `json:"theta_final"`
	GammaFinal      float64 `json:"gamma_final"`
	FittedR         float64 `json:"fitted_r"`
}

// jobResult is the subset of GET /v1/pipeline/{id}/result the checks read.
type jobResult struct {
	jobValues
	CacheHit bool `json:"cache_hit"`
	Degraded bool `json:"degraded"`
}

func valuesOf(p *experiments.Pipeline) jobValues {
	v := jobValues{
		Vectors:         len(p.TestSet.Patterns),
		StuckAtCoverage: p.TestSet.Coverage(true),
		ThetaFinal:      p.ThetaCurve(false).Final(),
		GammaFinal:      p.GammaCurve().Final(),
	}
	if p.Yield > 0 && p.Yield < 1 {
		v.FittedR = experiments.Figure5(p).Fitted.R
	}
	return v
}

// newJob decodes a submission body exactly as the nodes will and derives
// its cache key and owners.
func newJob(circuit string, seed int64) (*job, error) {
	body := []byte(fmt.Sprintf(`{"circuit":%q,"seed":%d}`, circuit, seed))
	_, cfg, nl, err := serve.DecodeRequest(body, serve.Config{SimWorkers: 1})
	if err != nil {
		return nil, err
	}
	key := experiments.CacheKey(nl.Name, cfg)
	return &job{body: body, key: key, owners: ownersOf(key), cfg: cfg, nl: nl}, nil
}

// compute runs the job directly through experiments.RunCtx and records
// the values the served result must reproduce.
func (j *job) compute(ctx context.Context) error {
	var err error
	if j.p, err = experiments.RunCtx(ctx, j.nl, j.cfg); err != nil {
		return err
	}
	j.want = valuesOf(j.p)
	return nil
}

// outcome is one client operation: submit, wait on the events long-poll,
// fetch the result.
type outcome struct {
	lat    time.Duration
	events []string
	res    jobResult
	jobID  string
}

func (o *outcome) saw(typ string) bool {
	for _, e := range o.events {
		if e == typ {
			return true
		}
	}
	return false
}

// opTimeout bounds one served operation; a slower one counts as failed.
const opTimeout = 60 * time.Second

// submit runs one closed-loop operation against node i. A non-2xx
// submit (429 shed, 503 draining), a failed or cancelled job and a
// timeout all return an error.
func (r *ring) submit(ctx context.Context, i int, j *job, rid string) (outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	base := r.nodes[i].ts.URL
	var o outcome
	t0 := time.Now()
	status, data, err := r.call(ctx, http.MethodPost, base+"/v1/pipeline", j.body, rid)
	if err != nil {
		return o, err
	}
	if status != http.StatusAccepted && status != http.StatusOK {
		return o, fmt.Errorf("submit: status %d: %s", status, data)
	}
	var js struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &js); err != nil || js.ID == "" {
		return o, fmt.Errorf("submit: bad response %q", data)
	}
	o.jobID = js.ID
	var since int64
	for terminal := false; !terminal; {
		status, data, err := r.call(ctx, http.MethodGet,
			fmt.Sprintf("%s/v1/pipeline/%s/events?poll=1&since=%d&wait_ms=30000", base, js.ID, since), nil, rid)
		if err != nil {
			return o, err
		}
		if status != http.StatusOK {
			return o, fmt.Errorf("events: status %d", status)
		}
		var ev struct {
			Events []struct {
				Seq  int64  `json:"seq"`
				Type string `json:"type"`
			} `json:"events"`
			Terminal bool `json:"terminal"`
		}
		if err := json.Unmarshal(data, &ev); err != nil {
			return o, fmt.Errorf("events: %w", err)
		}
		for _, e := range ev.Events {
			o.events = append(o.events, e.Type)
			since = e.Seq
		}
		terminal = ev.Terminal
	}
	status, data, err = r.call(ctx, http.MethodGet, base+"/v1/pipeline/"+js.ID+"/result", nil, rid)
	o.lat = time.Since(t0)
	if err != nil {
		return o, err
	}
	if status != http.StatusOK {
		return o, fmt.Errorf("result: status %d: %s", status, data)
	}
	if err := json.Unmarshal(data, &o.res); err != nil {
		return o, fmt.Errorf("result: %w", err)
	}
	return o, nil
}

func (r *ring) call(ctx context.Context, method, url string, body []byte, rid string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Request-ID", rid)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// traced is submit with the operation recorded on the ring's tap, plus,
// in traced runs, the accepting node's job stamps.
func (r *ring) traced(ctx context.Context, i int, j *job, rid, path string) (outcome, error) {
	r.tap.opStart(rid, path, j.key)
	o, err := r.submit(ctx, i, j, rid)
	r.tap.opDone(rid, o, err)
	if err == nil && r.tap.op(rid) != nil {
		sub, st, fin, err := r.jobTimes(ctx, i, o.jobID, rid)
		if err != nil {
			return o, err
		}
		r.tap.jobTimes(rid, sub, st, fin)
	}
	return o, err
}

// jobTimes reads a finished job's submitted/started/finished stamps.
func (r *ring) jobTimes(ctx context.Context, i int, id, rid string) (submitted, started, finished time.Time, err error) {
	status, data, err := r.call(ctx, http.MethodGet, r.nodes[i].ts.URL+"/v1/pipeline/"+id, nil, rid)
	if err != nil {
		return
	}
	if status != http.StatusOK {
		err = fmt.Errorf("status: %d", status)
		return
	}
	var st struct {
		Submitted time.Time `json:"submitted_at"`
		Started   time.Time `json:"started_at"`
		Finished  time.Time `json:"finished_at"`
	}
	err = json.Unmarshal(data, &st)
	return st.Submitted, st.Started, st.Finished, err
}

// Warm paths: where the accepting node finds a stored result.
const (
	pathHit     = "hit"     // the accepting node is the primary owner
	pathFwd     = "fwd"     // forwarded to the live primary owner
	pathReplica = "replica" // primary dead; served from the live replica
)

var warmPaths = []string{pathHit, pathFwd, pathReplica}

// wantPath reports whether a key's owners put it on path p.
func wantPath(p string, owners []int) bool {
	switch p {
	case pathHit:
		return owners[0] == accept
	case pathFwd:
		return owners[0] == liveOwner
	case pathReplica:
		return owners[0] == deadNode && owners[1] == liveOwner
	}
	return false
}

// warmKeys draws the seeded key set of every warm path, keysPerPath keys
// over the warm circuits, and runs each directly: the envelopes to
// pre-store and the values every read must return. This is input
// generation, done once per process and not counted as set-up.
func warmKeys(ctx context.Context, pl plan, seed int64) (map[string][]*job, error) {
	keys := map[string][]*job{}
	next := seed * 1000
	for _, p := range warmPaths {
		for k := 0; k < pl.keysPerPath; k++ {
			circuit := pl.warmCircuits[k%len(pl.warmCircuits)]
			for {
				next++
				j, err := newJob(circuit, next)
				if err != nil {
					return nil, err
				}
				if !wantPath(p, j.owners) {
					continue
				}
				if err := j.compute(ctx); err != nil {
					return nil, err
				}
				if j.env, err = j.p.EncodeCache(); err != nil {
					return nil, err
				}
				keys[p] = append(keys[p], j)
				break
			}
		}
	}
	return keys, nil
}

// warmState is the set-up read-only ring: node 2 stopped, and for each
// path a key set whose results sit in their owners' stores.
type warmState struct {
	ring     *ring
	keys     map[string][]*job
	computed int64 // ring compute counter when set-up ended
}

// setupWarm starts a ring, stores every key's envelope with its owners,
// stops the dead node, and sends every key once so that set-up, not the
// timed loop, pays the first forward, backfill and breaker trip.
func setupWarm(ctx context.Context, keys map[string][]*job, o ringOptions) (*warmState, error) {
	r, err := startRing(o)
	if err != nil {
		return nil, err
	}
	ws := &warmState{ring: r, keys: keys}
	if err := ws.prepare(ctx); err != nil {
		r.close()
		return nil, err
	}
	return ws, nil
}

func (ws *warmState) prepare(ctx context.Context) error {
	r := ws.ring
	for _, p := range warmPaths {
		for _, j := range ws.keys[p] {
			for _, ow := range j.owners {
				if err := r.nodes[ow].fs.Put(ctx, j.key, j.env); err != nil {
					return err
				}
			}
		}
	}
	r.stop(deadNode)
	// One read per path, then replica reads until the accepting node's
	// breaker for the dead node is open, as in a fleet that lost a node
	// earlier. Later reads of any key cost the same: every forward and
	// replica fetch rewrites the local copy.
	for _, p := range warmPaths {
		if err := ws.op(ctx, p, ws.keys[p][0], "warmup"); err != nil {
			return fmt.Errorf("warm-up %s: %w", p, err)
		}
	}
	dead := r.nodes[accept].cl.Peer(nodeName(deadNode)).Breaker()
	for i := 0; dead.State() != store.BreakerOpen; i++ {
		if i == 20 {
			return fmt.Errorf("breaker for %s never opened", nodeName(deadNode))
		}
		if err := ws.op(ctx, pathReplica, ws.keys[pathReplica][0], "warmup"); err != nil {
			return fmt.Errorf("warm-up %s: %w", pathReplica, err)
		}
	}
	ws.computed = r.computed()
	return nil
}

// op sends one warm read and checks its values and the path it took.
func (ws *warmState) op(ctx context.Context, path string, j *job, rid string) error {
	o, err := ws.ring.traced(ctx, accept, j, rid, path)
	if err != nil {
		return err
	}
	if o.res.jobValues != j.want {
		return fmt.Errorf("%s %s: result %+v, direct run %+v", path, j.key, o.res.jobValues, j.want)
	}
	fwd, rep := o.saw(serve.EventForwarded), o.saw(serve.EventReplicaFetch)
	ok := false
	switch path {
	case pathHit:
		ok = !fwd && !rep && o.res.CacheHit
	case pathFwd:
		ok = fwd && !rep
	case pathReplica:
		ok = rep
	}
	if !ok || o.saw(serve.EventForwardFallback) || o.res.Degraded {
		return fmt.Errorf("%s %s took another path: events %v", path, j.key, o.events)
	}
	return nil
}

// verify checks that no warm read ran a pipeline.
func (ws *warmState) verify() error {
	if d := ws.ring.computed() - ws.computed; d != 0 {
		return fmt.Errorf("warm traffic computed %d pipelines, want 0", d)
	}
	return nil
}

// coldKeys draws each client's seeded schedule of n fresh keys over the
// cold circuits, plus one warm-up key per client.
func coldKeys(pl plan, seed int64, n int) ([][]*job, error) {
	keys := make([][]*job, clients)
	for c := range keys {
		for i := 0; i <= n; i++ {
			circuit := pl.coldCircuits[i%len(pl.coldCircuits)]
			j, err := newJob(circuit, (seed*clients+int64(c))*1_000_000+int64(i))
			if err != nil {
				return nil, err
			}
			keys[c] = append(keys[c], j)
		}
	}
	return keys, nil
}

// coldState is a healthy ring receiving only fresh keys.
type coldState struct {
	ring *ring
	// keys[c] is client c's schedule of fresh keys; next[c] its position.
	keys [][]*job
	next []int
	mu   sync.Mutex
	done []*job
}

// setupCold starts a healthy ring and sends each client's first key, so
// that the nodes' first compute, store write and replication happen in
// set-up.
func setupCold(ctx context.Context, keys [][]*job, o ringOptions) (*coldState, error) {
	r, err := startRing(o)
	if err != nil {
		return nil, err
	}
	cs := &coldState{ring: r, keys: keys, next: make([]int, clients)}
	for c := range keys {
		if err := cs.op(ctx, c, "warmup"); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up cold: %w", err)
		}
	}
	cs.done = nil
	return cs, nil
}

// op sends client c's next fresh key to its primary owner.
func (cs *coldState) op(ctx context.Context, c int, rid string) error {
	if cs.next[c] == len(cs.keys[c]) {
		return fmt.Errorf("client %d ran out of fresh keys", c)
	}
	j := cs.keys[c][cs.next[c]]
	cs.next[c]++
	o, err := cs.ring.traced(ctx, j.owners[0], j, rid, "cold")
	if err != nil {
		return err
	}
	if o.res.CacheHit || o.res.Degraded || o.saw(serve.EventForwarded) {
		return fmt.Errorf("cold %s: cache_hit %v degraded %v events %v", j.key, o.res.CacheHit, o.res.Degraded, o.events)
	}
	cs.mu.Lock()
	cs.done = append(cs.done, j)
	cs.mu.Unlock()
	return nil
}

// verify checks that every written key sits byte-identical and intact on
// both owners, and that a seeded sample matches a direct RunCtx byte for
// byte.
func (cs *coldState) verify(ctx context.Context, seed int64, sample int) error {
	for _, j := range cs.done {
		var first []byte
		for _, ow := range j.owners {
			data, err := cs.ring.nodes[ow].fs.Get(ctx, j.key)
			if err != nil {
				return fmt.Errorf("cold %s on %s: %w", j.key, nodeName(ow), err)
			}
			if err := store.VerifyEnvelope(data); err != nil {
				return fmt.Errorf("cold %s on %s: %w", j.key, nodeName(ow), err)
			}
			if first == nil {
				first = data
			} else if !bytes.Equal(first, data) {
				return fmt.Errorf("cold %s: owners hold different envelopes", j.key)
			}
		}
	}
	for i := 0; i < sample && len(cs.done) > 0; i++ {
		j := cs.done[(uint64(seed)+uint64(i)*7919)%uint64(len(cs.done))]
		if err := j.compute(ctx); err != nil {
			return err
		}
		data, err := j.p.EncodeCache()
		if err != nil {
			return err
		}
		stored, err := cs.ring.nodes[j.owners[0]].fs.Get(ctx, j.key)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, stored) {
			return fmt.Errorf("cold %s: stored envelope differs from a direct run", j.key)
		}
	}
	return nil
}

// workDir returns a fresh directory for one set-up under root.
func workDir(root string, n *atomic.Int64) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("ring-%d", n.Add(1)))
	return dir, os.MkdirAll(dir, 0o755)
}

// ridFor names a client operation. Request IDs must match
// [A-Za-z0-9._-]{1,128} or the nodes replace them.
func ridFor(workload string, client, i int) string {
	return fmt.Sprintf("pb-%s-%d-%d", workload, client, i)
}
