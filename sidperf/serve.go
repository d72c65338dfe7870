package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	sidapi "github.com/sid-wsn/sid"
	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/serve"
	"github.com/sid-wsn/sid/internal/sid"
	"github.com/sid-wsn/sid/internal/source"
)

// serve_open: an in-process detection server driven through its HTTP
// handler (no sockets). Each tenant replays a recorded SIDBNDL1 feed
// (serve.BuildFeed): mostly quiet 3×3 fields plus detection-bearing 5×5
// crossings. One generator goroutine posts chunks on an open-loop schedule
// at a fixed offered rate in node-blocks per second, whatever the server
// does; every latency is timed from the moment its request was due. Each
// tenant's NDJSON event stream is read by an in-memory streaming writer.
//
// The run has three parts: a low and a high fixed offered rate, then a
// ladder of rates 5% apart that finds the highest rate meeting the
// ingest latency limit.
const (
	serveLowRate    = 50000.0 // node-blocks/s, about 1/4 and 2/5 of capacity
	serveHighRate   = 80000.0
	serveLowS       = 4.0 // offered seconds per fixed-rate phase
	serveHighS      = 9.0
	serveStepS      = 1.0 // offered seconds per ladder rung
	serveStepRatio  = 1.05
	serveMaxRungs   = 24
	serveLadderFrom = 1.3   // first rung, as a multiple of the high rate
	serveLimitMs    = 100.0 // ingest p99 limit for the capacity ladder
	serveActive     = 128   // tenants streaming at once
	serveSetupSize  = 100   // tenants per timed set-up
	serveSetups     = 5
	serveWindow     = time.Second
	serveQuietFeeds = 3
	serveHotFeeds   = 2
	serveHotEvery   = 3 // every third tenant replays a crossing
)

// feed is one recorded tenant load.
type feed struct {
	spec   sidapi.Config
	rec    *serve.Feed
	blocks []int // node-blocks per chunk
	simS   float64
	hot    bool // a 5×5 crossing: 500-block chunks that carry confirmations
}

func (f *feed) totalBlocks() int {
	n := 0
	for _, b := range f.blocks {
		n += b
	}
	return n
}

// buildFeeds records the seed's feed mix. Quiet feeds are 3×3 fields (too
// few rows to confirm anything) with an intruder passing; hot feeds are
// 5×5 crossings whose recording confirmed at least one detection — a
// crossing the recorded run did not confirm is replaced by the next seeded
// one, so every hot tenant carries confirmation traffic.
func buildFeeds(seed int64) (quiet, hot []*feed, err error) {
	rng := rand.New(rand.NewSource(seed))
	mk := func(n int, dur, chunk, crossAt float64) (*feed, error) {
		spec := sidapi.DefaultDeployment()
		spec.Rows, spec.Cols = n, n
		spec.Seed = rng.Int63n(1 << 30)
		in := sidapi.Intruder{SpeedKnots: 8 + 4*rng.Float64(), HeadingDeg: 80 + 20*rng.Float64(), CrossAt: crossAt}
		rec, err := serve.BuildFeed(serve.FeedSpec{Spec: spec, Intruders: []sidapi.Intruder{in}, Duration: dur, ChunkS: chunk})
		if err != nil {
			return nil, err
		}
		f := &feed{spec: spec, rec: rec, simS: dur, hot: n == 5}
		for range rec.Chunks {
			f.blocks = append(f.blocks, n*n*int(chunk/0.5+0.5))
		}
		return f, nil
	}
	for i := 0; i < serveQuietFeeds; i++ {
		f, err := mk(3, 20, 5, 10)
		if err != nil {
			return nil, nil, err
		}
		quiet = append(quiet, f)
	}
	for tries := 0; len(hot) < serveHotFeeds; tries++ {
		if tries == 20 {
			return nil, nil, fmt.Errorf("no confirmed crossing in %d recorded 5x5 feeds", tries)
		}
		f, err := mk(5, 120, 10, 60)
		if err != nil {
			return nil, nil, err
		}
		if len(f.rec.Detections) > 0 {
			hot = append(hot, f)
		}
	}
	return quiet, hot, nil
}

// tenantRun is one tenant's life in a phase. The generator writes due,
// accepted and postMs; the tenant's event reader writes the rest. Both are
// read only after the phase has waited for the reader to finish.
type tenantRun struct {
	id   string
	f    *feed
	next int // next chunk to post

	due      []time.Time
	accepted []time.Time
	postMs   []float64
	rejected bool // a post was refused; the tenant was abandoned

	ingested  []time.Time
	nIngest   int
	dets      []sidapi.Detection
	detAt     []time.Time
	detChunk  []int // the chunk whose processing confirmed each detection
	streamErr string
	complete  chan struct{} // closed when the last chunk's ingest event arrives
	ended     chan struct{} // closed when the event handler returns
}

// eventWriter is the in-memory streaming ResponseWriter a tenant's event
// stream is served into. The handler writes each NDJSON line and flushes;
// Write splits lines and records each event's arrival time.
type eventWriter struct {
	hdr    http.Header
	status int
	ready  chan struct{} // closed at WriteHeader: the subscription exists
	buf    []byte
	t      *tenantRun
}

func (w *eventWriter) Header() http.Header { return w.hdr }
func (w *eventWriter) Flush()              {}

func (w *eventWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		close(w.ready)
	}
}

func (w *eventWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	now := time.Now()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		w.event(now, w.buf[:i])
		w.buf = w.buf[i+1:]
	}
}

type wireEvent struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

func (w *eventWriter) event(now time.Time, line []byte) {
	t := w.t
	var ev wireEvent
	if err := json.Unmarshal(line, &ev); err != nil {
		t.streamErr = fmt.Sprintf("bad event line: %v", err)
		return
	}
	switch ev.Kind {
	case serve.KindIngest:
		var d serve.IngestDone
		if err := json.Unmarshal(ev.Data, &d); err != nil || d.Seq != t.nIngest || d.Seq >= len(t.ingested) {
			t.streamErr = fmt.Sprintf("unexpected ingest event %s after %d chunks", ev.Data, t.nIngest)
			return
		}
		t.ingested[d.Seq] = now
		t.nIngest++
		if t.nIngest == len(t.ingested) {
			close(t.complete)
		}
	case serve.KindDetection:
		var d sidapi.Detection
		if err := json.Unmarshal(ev.Data, &d); err != nil {
			t.streamErr = err.Error()
			return
		}
		// A tenant processes chunks in order and announces a chunk's
		// detections before its ingest event: the confirming chunk is the
		// first one not yet confirmed.
		t.dets = append(t.dets, d)
		t.detAt = append(t.detAt, now)
		t.detChunk = append(t.detChunk, t.nIngest)
	case serve.KindError:
		t.streamErr = string(ev.Data)
	}
}

// server wraps the handler with the few calls the load needs.
type server struct {
	srv *serve.Server
	h   http.Handler
}

func (s *server) do(method, path, ctype string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	rr := httptest.NewRecorder()
	s.h.ServeHTTP(rr, req)
	return rr
}

// open creates the tenant and attaches its event stream; it returns once
// the subscription exists, so no event can be missed.
func (s *server) open(ctx context.Context, t *tenantRun) error {
	body, err := json.Marshal(serve.CreateRequest{ID: t.id, Spec: t.f.spec})
	if err != nil {
		return err
	}
	if rr := s.do(http.MethodPost, "/v1/tenants", serve.ContentTypeJSON, body); rr.Code != http.StatusCreated {
		return fmt.Errorf("create %s: status %d: %s", t.id, rr.Code, rr.Body.String())
	}
	n := len(t.f.rec.Chunks)
	t.due = make([]time.Time, n)
	t.accepted = make([]time.Time, n)
	t.postMs = make([]float64, n)
	t.ingested = make([]time.Time, n)
	t.complete = make(chan struct{})
	t.ended = make(chan struct{})
	w := &eventWriter{hdr: http.Header{}, ready: make(chan struct{}), t: t}
	req := httptest.NewRequest(http.MethodGet, "/v1/tenants/"+t.id+"/events", nil).WithContext(ctx)
	go func() {
		defer close(t.ended)
		s.h.ServeHTTP(w, req)
	}()
	<-w.ready
	if w.status != http.StatusOK {
		return fmt.Errorf("events %s: status %d", t.id, w.status)
	}
	return nil
}

// close deletes the tenant (which drains its accepted chunks and ends its
// stream) and waits for the event handler to return.
func (s *server) close(t *tenantRun) error {
	rr := s.do(http.MethodDelete, "/v1/tenants/"+t.id, "", nil)
	<-t.ended
	if rr.Code != http.StatusOK {
		return fmt.Errorf("delete %s: status %d", t.id, rr.Code)
	}
	return nil
}

func (s *server) counter(name string) int64 { return s.srv.Registry().Counter(name).Value() }

// post is one scheduled chunk.
type post struct {
	t     *tenantRun
	chunk int
	due   time.Duration // offset from the phase start
}

// phaseResult is what one open-loop phase measured.
type phaseResult struct {
	rate                  float64
	start                 time.Time
	tenants               []*tenantRun
	posts, rejected, errs int
	ingest, accept, det   series // due → ingest event, 202 → ingest event, due → detection event
	acceptHot             series // 202 → ingest event of the hot feeds' chunks
	postMs, lagMs         []float64
	mismatches            int // completed tenants whose detections differ from the recording
	missing               int // accepted chunks never confirmed
	expectedDets          int
	blocks                int
	simS                  float64
}

// plan builds a phase's tenants (a fixed hot/quiet pattern over the feeds)
// and its open-loop schedule: serveActive tenants stream at once, taking
// turns chunk by chunk, and a finished tenant's slot passes to the next.
// Post due times space the offered node-blocks exactly at rate.
func plan(prefix string, quiet, hot []*feed, rate, seconds float64) ([]*tenantRun, []post) {
	budget := int(rate * seconds)
	var tenants []*tenantRun
	for blocks, i := 0, 0; blocks < budget; i++ {
		t := &tenantRun{id: fmt.Sprintf("%s-%d", prefix, i)}
		if i%serveHotEvery == 0 {
			t.f = hot[(i/serveHotEvery)%len(hot)]
		} else {
			t.f = quiet[i%len(quiet)]
		}
		blocks += t.f.totalBlocks()
		tenants = append(tenants, t)
	}
	var posts []post
	var off float64
	queue := tenants
	var active []*tenantRun
	next := make(map[*tenantRun]int, len(tenants))
	for len(queue) > 0 || len(active) > 0 {
		for len(active) < serveActive && len(queue) > 0 {
			active = append(active, queue[0])
			queue = queue[1:]
		}
		kept := active[:0]
		for _, t := range active {
			k := next[t]
			posts = append(posts, post{t: t, chunk: k, due: time.Duration(off * float64(time.Second))})
			off += float64(t.f.blocks[k]) / rate
			next[t] = k + 1
			if k+1 < len(t.f.rec.Chunks) {
				kept = append(kept, t)
			}
		}
		active = kept
	}
	return tenants, posts
}

// runPhase creates the phase's tenants, drives the schedule, waits for
// every accepted chunk to be confirmed, deletes the tenants and tallies.
// sample (may be nil) runs alongside the generator until it finishes.
func (s *server) runPhase(prefix string, quiet, hot []*feed, rate, seconds float64, sample func(stop <-chan struct{})) (*phaseResult, error) {
	tenants, posts := plan(prefix, quiet, hot, rate, seconds)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, t := range tenants {
		if err := s.open(ctx, t); err != nil {
			return nil, err
		}
	}
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if sample != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			sample(stop)
		}()
	}
	start := time.Now()
	res := &phaseResult{rate: rate, start: start, tenants: tenants}
	for _, p := range posts {
		t := p.t
		if t.rejected {
			continue
		}
		due := start.Add(p.due)
		waitUntil(due)
		b := time.Now()
		res.lagMs = append(res.lagMs, ms(b.Sub(due)))
		t.due[p.chunk] = due
		rr := s.do(http.MethodPost, "/v1/tenants/"+t.id+"/chunks", serve.ContentTypeBundle, t.f.rec.Chunks[p.chunk])
		e := time.Now()
		res.posts++
		switch rr.Code {
		case http.StatusAccepted:
			t.accepted[p.chunk] = e
			t.postMs[p.chunk] = ms(e.Sub(b))
			t.next = p.chunk + 1
		case http.StatusTooManyRequests:
			res.rejected++
			t.rejected = true
		default:
			res.errs++
			t.rejected = true
		}
	}
	close(stop)
	sampler.Wait()
	// Drain: every accepted chunk must be confirmed, then the tenant goes.
	deadline := time.After(60 * time.Second)
	for _, t := range tenants {
		if !t.rejected {
			select {
			case <-t.complete:
			case <-deadline:
				return nil, fmt.Errorf("tenant %s: %d of %d chunks confirmed after 60 s", t.id, t.nIngest, len(t.ingested))
			}
		}
		if err := s.close(t); err != nil {
			return nil, err
		}
	}
	res.tally()
	return res, nil
}

// tally turns the phase's raw timestamps into latencies and correctness
// counts. It runs after every event handler has returned.
func (res *phaseResult) tally() {
	for _, t := range res.tenants {
		if t.streamErr != "" {
			res.errs++
		}
		for k := 0; k < t.next; k++ {
			if t.ingested[k].IsZero() {
				res.missing++
				continue
			}
			at := t.due[k].Sub(res.start)
			res.ingest.add(at, ms(t.ingested[k].Sub(t.due[k])))
			res.accept.add(at, ms(t.ingested[k].Sub(t.accepted[k])))
			if t.f.hot {
				res.acceptHot.add(at, ms(t.ingested[k].Sub(t.accepted[k])))
			}
			res.postMs = append(res.postMs, t.postMs[k])
			res.blocks += t.f.blocks[k]
		}
		if t.rejected {
			continue
		}
		res.simS += t.f.simS
		res.expectedDets += len(t.f.rec.Detections)
		if !detectionsEqual(t.dets, t.f.rec.Detections) {
			res.mismatches++
		}
		for i, at := range t.detAt {
			due := t.due[t.detChunk[i]]
			res.det.add(due.Sub(res.start), ms(at.Sub(due)))
		}
	}
}

// series is a set of latencies, each stamped with its request's due time as
// an offset into the phase.
type series struct {
	at []time.Duration
	ms []float64
}

func (s *series) add(at time.Duration, v float64) {
	s.at = append(s.at, at)
	s.ms = append(s.ms, v)
}

func (s *series) n() int { return len(s.ms) }

// q is the q-quantile over the whole phase.
func (s *series) q(q float64) float64 { return quantile(append([]float64(nil), s.ms...), q) }

// windowed is the median, over the phase's serveWindow-long stretches, of
// each stretch's q-quantile. A tail percentile taken this way describes a
// typical stretch of the phase, so one transient stall on a shared host
// moves it by one window's worth instead of setting it. Stretches with
// fewer than minN samples (the phase's ragged end) are left out.
func (s *series) windowed(q float64, minN int) float64 {
	byWin := map[int][]float64{}
	for i, at := range s.at {
		w := int(at / serveWindow)
		byWin[w] = append(byWin[w], s.ms[i])
	}
	var per []float64
	for _, v := range byWin {
		if len(v) >= minN {
			per = append(per, quantile(v, q))
		}
	}
	if len(per) == 0 {
		return s.q(q)
	}
	return median(per)
}

// tail is the median latency of the last tenth of the phase's requests by
// due time: a backlog that grows through the phase shows here.
func (s *series) tail() float64 {
	idx := make([]int, len(s.at))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.at[idx[a]] < s.at[idx[b]] })
	var v []float64
	for _, i := range idx[len(idx)-len(idx)/10:] {
		v = append(v, s.ms[i])
	}
	return median(v)
}

func detectionsEqual(a, b []sidapi.Detection) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// failures counts what the phase got wrong: refused or failed posts,
// accepted chunks never confirmed, and completed tenants whose detections
// differ from their recording.
func (r *phaseResult) failures() int { return r.rejected + r.errs + r.missing + r.mismatches }

// meets reports whether a ladder rung met the latency limit with no
// refusal and no backlog growth.
func (r *phaseResult) meets() bool {
	return r.failures() == 0 &&
		r.ingest.q(0.99) <= serveLimitMs &&
		r.ingest.tail() <= serveLimitMs
}

func runServeOpen(o runOpts, host hostFacts) (*outcome, error) {
	t0 := time.Now()
	quiet, hot, err := buildFeeds(o.seed)
	if err != nil {
		return nil, fmt.Errorf("building feeds: %w", err)
	}
	logf("serve_open: recorded %d quiet and %d hot feeds in %.1f s", len(quiet), len(hot), time.Since(t0).Seconds())
	runtime.GC()
	heap := watchHeap()
	logf("serve_open: server Workers=%d", serveWorkers(host))
	s := &server{srv: serve.New(serve.Config{Workers: serveWorkers(host)})}
	defer s.srv.Close()
	s.h = s.srv.Handler()

	// Set-up: open serveSetupSize tenants (create + attach the event
	// stream), several times; each round's tenants are deleted again.
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		var ts []*tenantRun
		for j := 0; j < serveSetupSize; j++ {
			t := &tenantRun{id: fmt.Sprintf("setup%d-%d", i, j), f: quiet[j%len(quiet)]}
			if j%serveHotEvery == 0 {
				t.f = hot[(j/serveHotEvery)%len(hot)]
			}
			ts = append(ts, t)
		}
		ctx, cancel := context.WithCancel(context.Background())
		start := time.Now()
		for _, t := range ts {
			if err := s.open(ctx, t); err != nil {
				cancel()
				return nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		for _, t := range ts {
			if err := s.close(t); err != nil {
				cancel()
				return nil, err
			}
		}
		cancel()
	}

	low, err := s.runPhase("low", quiet, hot, serveLowRate, serveLowS, nil)
	if err != nil {
		return nil, err
	}
	high, err := s.runPhase("high", quiet, hot, serveHighRate, serveHighS, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	for _, p := range []*phaseResult{low, high} {
		out.attempted += p.posts + p.expectedDets
		out.failed += p.failures()
		if p.mismatches > 0 {
			return nil, fmt.Errorf("%d tenants at %.0f blocks/s served detections that differ from their recordings", p.mismatches, p.rate)
		}
		if err := checkLag(p.lagMs, fmt.Sprintf("the generator at %.0f blocks/s", p.rate)); err != nil {
			return nil, err
		}
	}
	logf("serve_open: low %d posts, %d tenants, lag p99 %.1f ms; high %d posts, %d tenants, lag p99 %.1f ms, %d detections (want %d); failures %d/%d",
		low.posts, len(low.tenants), quantile(low.lagMs, 0.99), high.posts, len(high.tenants), quantile(high.lagMs, 0.99),
		high.det.n(), high.expectedDets, low.failures(), high.failures())
	if high.det.n() < 100 {
		return nil, fmt.Errorf("only %d detection events at the high rate; the e2e percentiles need 100", high.det.n())
	}

	if o.trace {
		heapMB := heap.Peak()
		if err := s.serveLayers(out, low, high, quiet, hot); err != nil {
			return nil, err
		}
		out.set("gen.lag_p99_ms", "ms", quantile(append(low.lagMs, high.lagMs...), 0.99))
		out.set("batch_p90_ms", "ms", low.acceptHot.windowed(0.9, 50))
		out.set("ingest_p50_ms.low", "ms", low.ingest.q(0.5))
		out.set("ingest_p99_ms.low", "ms", low.ingest.windowed(0.99, 50))
		out.set("ingest_p50_ms.high", "ms", high.ingest.q(0.5))
		out.set("ingest_p99_ms.high", "ms", high.ingest.windowed(0.99, 50))
		out.set("det_e2e_p50_ms", "ms", high.det.q(0.5))
		out.set("det_e2e_p90_ms", "ms", high.det.windowed(0.9, 5))
		// Per node of the busiest phase's tenants, all of them open at once.
		nodes := 0
		for _, t := range high.tenants {
			nodes += t.f.spec.Rows * t.f.spec.Cols
		}
		out.set("sid.heap_per_node_kb", "KiB", heapMB*1024/float64(nodes))
		return out, nil
	}

	capacity, err := s.ladder(quiet, hot)
	if err != nil {
		return nil, err
	}
	blocksPerSimS := float64(low.blocks+high.blocks) / (low.simS + high.simS)
	out.set("capacity_blocks_s", "1/s", capacity)
	out.set("realtime_factor", "x", capacity/blocksPerSimS)
	// One chunk kind only: a median over a mix of 90- and 500-block chunks
	// would sit on the boundary between the two.
	out.set("batch_p50_ms", "ms", low.acceptHot.q(0.5))
	out.set("setup_s", "s", median(setups))
	out.set("heap_peak_mb", "MiB", heap.Peak())
	return out, nil
}

// ladder climbs offered rates serveStepRatio apart from serveLadderFrom
// times the high rate (descending instead when that first rung fails) and
// returns the capacity: the highest passing rate, interpolated towards the
// failing rung above it by where the p99 crossed the limit.
func (s *server) ladder(quiet, hot []*feed) (float64, error) {
	type rung struct {
		rate, p99 float64
		ok        bool
	}
	once := func(name string, rate float64) (rung, error) {
		p, err := s.runPhase(name, quiet, hot, rate, serveStepS, nil)
		if err != nil {
			return rung{}, err
		}
		if p.mismatches > 0 {
			return rung{}, fmt.Errorf("%d tenants at %.0f blocks/s served wrong detections", p.mismatches, rate)
		}
		r := rung{rate: rate, p99: p.ingest.q(0.99), ok: p.meets()}
		if !r.ok && p.failures() > 0 {
			r.p99 = math.Max(r.p99, 2*serveLimitMs)
		}
		logf("  rung %.0f blocks/s: ingest p99 %.1f ms, lag p99 %.1f ms, failures %d, ok=%v", rate, r.p99, quantile(p.lagMs, 0.99), p.failures(), r.ok)
		return r, nil
	}
	// A rung fails only when it fails twice in a row, so one stall of the
	// host does not end the climb.
	run := func(i int, rate float64) (rung, error) {
		r, err := once(fmt.Sprintf("rung%d", i), rate)
		if err != nil || r.ok {
			return r, err
		}
		return once(fmt.Sprintf("rung%d-again", i), rate)
	}
	first, err := run(0, serveLadderFrom*serveHighRate)
	if err != nil {
		return 0, err
	}
	prev := first
	for i := 1; i < serveMaxRungs; i++ {
		rate := prev.rate * serveStepRatio
		if !first.ok {
			rate = prev.rate / serveStepRatio
		}
		cur, err := run(i, rate)
		if err != nil {
			return 0, err
		}
		pass, fail := prev, cur
		if !first.ok {
			pass, fail = cur, prev
		}
		if pass.ok && !fail.ok {
			frac := (serveLimitMs - pass.p99) / (fail.p99 - pass.p99)
			return pass.rate + (fail.rate-pass.rate)*math.Min(math.Max(frac, 0), 1), nil
		}
		prev = cur
	}
	return 0, fmt.Errorf("capacity ladder found no limit crossing in %d rungs from %.0f blocks/s",
		serveMaxRungs, serveLadderFrom*serveHighRate)
}

// serveLayers fills the per-layer view of serve_open: the serve layers from
// the phases' own timestamps and the server's counters, a re-run of the
// high rate with the tenant queues sampled for the tracing overhead, the
// decoder over the workload's bodies, and the field layers from an
// in-process replay of a hot feed through a timed source.
func (s *server) serveLayers(out *outcome, low, high *phaseResult, quiet, hot []*feed) error {
	if err := feedLayers(out, hot[0]); err != nil {
		return err
	}
	postMs := append(append([]float64(nil), low.postMs...), high.postMs...)
	out.set("serve.post_ms.p50", "ms", quantile(postMs, 0.5))
	out.set("serve.post_ms.p99", "ms", quantile(postMs, 0.99))
	out.set("serve.accept_to_confirm_ms.p50", "ms", high.accept.q(0.5))
	out.set("serve.accept_to_confirm_ms.p99", "ms", high.accept.q(0.99))

	var qmax int
	sample := func(stop <-chan struct{}) {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			rr := s.do(http.MethodGet, "/v1/tenants", "", nil)
			var sts []serve.TenantStatus
			if json.Unmarshal(rr.Body.Bytes(), &sts) == nil {
				for _, st := range sts {
					if st.QueueLen > qmax {
						qmax = st.QueueLen
					}
				}
			}
		}
	}
	traced, err := s.runPhase("traced", quiet, hot, serveHighRate, serveHighS, sample)
	if err != nil {
		return err
	}
	out.set("serve.queue_len_max", "count", float64(qmax))
	out.set("serve.rejected_busy", "count", float64(s.counter("serve.rejected_busy")))
	out.set("serve.events_dropped", "count", float64(s.counter("serve.events_dropped")))
	out.set("trace.overhead_frac", "ratio", traced.ingest.q(0.5)/high.ingest.q(0.5)-1)

	var blocks int
	var busy time.Duration
	for _, f := range append(append([]*feed(nil), quiet...), hot...) {
		for k, c := range f.rec.Chunks {
			t0 := time.Now()
			if _, _, _, _, err := serve.DecodeBundle(bytes.NewReader(c)); err != nil {
				return err
			}
			busy += time.Since(t0)
			blocks += f.blocks[k]
		}
	}
	out.set("serve.decode_ns_per_block", "ns", float64(busy.Nanoseconds())/float64(blocks))
	return nil
}

// feedLayers replays one hot feed in process, exactly as a tenant runs it
// (Workers 1, the feed's chunks decoded into a trace source), through a
// timed source, and fills the field-layer metrics from it. The serve-layer
// metrics it zeroes are filled afterwards by the caller.
func feedLayers(out *outcome, f *feed) error {
	var nodes [][]sensor.Sample
	for _, c := range f.rec.Chunks {
		_, ns, _, _, err := serve.DecodeBundle(bytes.NewReader(c))
		if err != nil {
			return err
		}
		if nodes == nil {
			nodes = make([][]sensor.Sample, len(ns))
		}
		for i := range ns {
			nodes[i] = append(nodes[i], ns[i]...)
		}
	}
	def := sensor.DefaultAccelConfig()
	cfg := f.spec.RuntimeConfig()
	cfg.Workers = 1
	build := func(col *obs.Collector, wrap bool) (*sid.Runtime, *timedSource, error) {
		tr, err := source.TraceFromSamples(def.SampleRate, def.CountsPerG, nodes)
		if err != nil {
			return nil, nil, err
		}
		c := cfg
		c.Source, c.Obs = tr, col
		var ts *timedSource
		if wrap {
			ts = newTimedSource(tr, 1)
			c.Source = ts
		}
		rt, err := sid.NewRuntime(c)
		return rt, ts, err
	}
	unpaced := []phase{{"low", f.simS, math.Inf(1)}}
	plainRT, _, err := build(nil, false)
	if err != nil {
		return err
	}
	plain, err := drivePass(plainRT, cfg.SampleBatch, unpaced, time.Time{}, nil)
	if err != nil {
		return err
	}
	prof := obs.NewProfiler()
	col := obs.New()
	col.SetProfiler(prof)
	runtime.GC()
	heap := watchHeap()
	rt, ts, err := build(col, true)
	if err != nil {
		return err
	}
	p, err := drivePass(rt, cfg.SampleBatch, unpaced, time.Time{}, ts.EndBatch)
	if err != nil {
		return err
	}
	var got []sidapi.Detection
	for _, r := range rt.SinkReports() {
		got = append(got, toDetection(r))
	}
	if !detectionsEqual(got, f.rec.Detections) {
		return fmt.Errorf("in-process replay of a hot feed differs from its recording")
	}
	l := layerInputs{cfg: cfg, rt: rt, ts: ts, prof: prof, pass: p, plain: plain, workers: 1, heapMB: heap.Peak()}
	return l.fill(out)
}

// toDetection converts a sink report the way the facade and the server do.
func toDetection(r sid.SinkReport) sidapi.Detection {
	d := sidapi.Detection{Time: r.Time, C: r.C, Reports: r.Reports, MeanOnset: r.MeanOnset, HasSpeed: r.HasSpeed}
	if r.HasSpeed {
		d.SpeedKnots = geo.ToKnots(r.Speed)
		d.HeadingDeg = geo.ToDeg(r.Heading)
	}
	return d
}

// serveWorkers leaves one CPU to the load generator and the event readers,
// which share the process with the server: without it the generator's own
// scheduling delay, not the server, would set the measured latencies.
func serveWorkers(h hostFacts) int {
	if h.GOMAXPROCS > 1 {
		return h.GOMAXPROCS - 1
	}
	return 1
}
