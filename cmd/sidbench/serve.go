package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	sidapi "github.com/sid-wsn/sid"
	"github.com/sid-wsn/sid/internal/serve"
)

// serveFeed pairs a recorded ingest load with the spec that produced it, so
// every tenant replaying the feed is created with the exact deployment the
// recording ran.
type serveFeed struct {
	spec sidapi.Config
	feed *serve.Feed
	// blocksPerChunk is the node-block count of one chunk: nodes × batches
	// (one block is one 0.5 s sensing batch on one node).
	blocksPerChunk int
	chunkS         float64
}

// serveLoadResult is one measured load-generator run.
type serveLoadResult struct {
	Tenants    int
	Chunks     int
	NodeBlocks int
	Detections int
	WantDets   int
	Wall       time.Duration
	P50, P99   time.Duration
	// DetP50/DetP99 are detection end-to-end latency: the POST of the chunk
	// whose processing confirmed the detection → the detection event arriving
	// on the tenant's wire stream.
	DetP50, DetP99 time.Duration
}

// BlocksPerSec is the sustained ingest throughput in node-blocks per
// wall-clock second.
func (r *serveLoadResult) BlocksPerSec() float64 {
	return float64(r.NodeBlocks) / r.Wall.Seconds()
}

// buildServeFeeds records the load mix once: three cheap 3×3 quiet-ish
// crossings that make up the bulk of the fleet, plus one detection-bearing
// 5×5 hot crossing assigned to every 50th tenant so the run exercises the
// full confirmation pipeline (cluster formation, correlation test, detection
// events on the wire) and not just ingest.
func buildServeFeeds() (cheap []serveFeed, hot serveFeed, err error) {
	const batch = 0.5
	mk := func(rows, cols int, seed int64, dur, chunkS, crossAt float64) (serveFeed, error) {
		spec := sidapi.DefaultDeployment()
		spec.Rows, spec.Cols = rows, cols
		spec.Seed = seed
		feed, err := serve.BuildFeed(serve.FeedSpec{
			Spec:      spec,
			Intruders: []sidapi.Intruder{{SpeedKnots: 10, CrossAt: crossAt}},
			Duration:  dur,
			ChunkS:    chunkS,
		})
		if err != nil {
			return serveFeed{}, err
		}
		return serveFeed{
			spec:           spec,
			feed:           feed,
			blocksPerChunk: rows * cols * int(chunkS/batch+0.5),
			chunkS:         chunkS,
		}, nil
	}
	for i, seed := range []int64{201, 202, 203} {
		f, err := mk(3, 3, seed, 20, 5, 10)
		if err != nil {
			return nil, serveFeed{}, fmt.Errorf("cheap feed %d: %w", i, err)
		}
		cheap = append(cheap, f)
	}
	hot, err = mk(5, 5, 301, 120, 10, 60)
	if err != nil {
		return nil, serveFeed{}, fmt.Errorf("hot feed: %w", err)
	}
	if len(hot.feed.Detections) == 0 {
		return nil, serveFeed{}, fmt.Errorf("hot feed recorded no detections; the load test needs confirmation traffic")
	}
	return cheap, hot, nil
}

// waitReady polls the tenant listing until the server answers.
func waitReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/tenants")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve: %s not ready after %v: %v", base, timeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// wireEvent is the decoded shape of one NDJSON event line.
type wireEvent struct {
	T    float64         `json:"t"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// driveTenant runs one tenant's full lifecycle closed-loop over HTTP:
// create, subscribe to the event stream, post every chunk and wait for its
// ingest confirmation before posting the next, then delete. It returns the
// per-chunk POST→confirmation latencies, the per-detection end-to-end
// latencies (chunk POST → detection event on the wire), and counts the
// detection events observed.
func driveTenant(client *http.Client, base, id string, f serveFeed, dets *int64) ([]time.Duration, []time.Duration, error) {
	body, err := json.Marshal(serve.CreateRequest{ID: id, Spec: f.spec})
	if err != nil {
		return nil, nil, err
	}
	resp, err := client.Post(base+"/v1/tenants", serve.ContentTypeJSON, bytes.NewReader(body))
	if err != nil {
		return nil, nil, fmt.Errorf("create: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return nil, nil, fmt.Errorf("create: status %d", resp.StatusCode)
	}

	// Event stream: NDJSON, read until serve.end or stream close.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/tenants/"+id+"/events", nil)
	if err != nil {
		return nil, nil, err
	}
	es, err := client.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("events: %w", err)
	}
	if es.StatusCode != http.StatusOK {
		es.Body.Close()
		return nil, nil, fmt.Errorf("events: status %d", es.StatusCode)
	}
	ingested := make(chan serve.IngestDone, 16)
	readerErr := make(chan error, 1)
	// postNs carries the wall time of the chunk POST currently in flight to
	// the reader goroutine; a detection event's end-to-end latency is
	// measured against it (closed-loop posting means the detection's chunk
	// is always the in-flight one).
	var postNs atomic.Int64
	var detMu sync.Mutex
	var detLats []time.Duration
	go func() {
		defer es.Body.Close()
		sc := bufio.NewScanner(es.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			var ev wireEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				readerErr <- fmt.Errorf("events: bad line: %w", err)
				return
			}
			switch ev.Kind {
			case serve.KindIngest:
				var done serve.IngestDone
				if err := json.Unmarshal(ev.Data, &done); err != nil {
					readerErr <- err
					return
				}
				ingested <- done
			case serve.KindDetection:
				atomic.AddInt64(dets, 1)
				if s := postNs.Load(); s > 0 {
					e2e := time.Since(time.Unix(0, s))
					detMu.Lock()
					detLats = append(detLats, e2e)
					detMu.Unlock()
				}
			case serve.KindError:
				readerErr <- fmt.Errorf("events: stream error: %s", ev.Data)
				return
			case serve.KindEnd:
				readerErr <- nil
				return
			}
		}
		readerErr <- sc.Err()
	}()

	lats := make([]time.Duration, 0, len(f.feed.Chunks))
	for k, chunk := range f.feed.Chunks {
		start := time.Now()
		postNs.Store(start.UnixNano())
		for {
			resp, err := client.Post(base+"/v1/tenants/"+id+"/chunks",
				serve.ContentTypeBundle, bytes.NewReader(chunk))
			if err != nil {
				return nil, nil, fmt.Errorf("chunk %d: %w", k, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted {
				break
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				// Closed-loop posting should never fill the queue; back off
				// anyway so an overloaded server sheds load instead of
				// failing the run.
				time.Sleep(50 * time.Millisecond)
				continue
			}
			return nil, nil, fmt.Errorf("chunk %d: status %d", k, resp.StatusCode)
		}
		select {
		case done := <-ingested:
			if done.Seq != k {
				return nil, nil, fmt.Errorf("chunk %d: confirmation for seq %d", k, done.Seq)
			}
			lats = append(lats, time.Since(start))
		case err := <-readerErr:
			if err == nil {
				err = fmt.Errorf("event stream ended before chunk %d confirmed", k)
			}
			return nil, nil, err
		case <-time.After(10 * time.Minute):
			return nil, nil, fmt.Errorf("chunk %d: confirmation timeout", k)
		}
	}

	req, err = http.NewRequest(http.MethodDelete, base+"/v1/tenants/"+id, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err = client.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("delete: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("delete: status %d", resp.StatusCode)
	}
	select {
	case err := <-readerErr:
		if err != nil {
			return nil, nil, err
		}
	case <-time.After(time.Minute):
		return nil, nil, fmt.Errorf("no end-of-stream event after delete")
	}
	detMu.Lock()
	defer detMu.Unlock()
	return lats, detLats, nil
}

// measureServe drives tenants concurrent closed-loop tenants against a
// detection server over loopback HTTP and measures sustained ingest
// throughput and POST→confirmation latency. With addr == "" it starts an
// in-process server on an ephemeral port; otherwise it targets a running
// sidserve at addr (the CI smoke path).
func measureServe(tenants int, addr string) (*serveLoadResult, error) {
	if tenants <= 0 {
		return nil, fmt.Errorf("serve: tenant count must be positive, got %d", tenants)
	}
	cheap, hot, err := buildServeFeeds()
	if err != nil {
		return nil, err
	}

	base := "http://" + addr
	if addr != "" {
		// External server (the CI smoke boots sidserve just before the
		// run): wait for it to accept requests rather than racing it.
		if err := waitReady(base, 10*time.Second); err != nil {
			return nil, err
		}
	} else {
		srv := serve.New(serve.Config{MaxTenants: tenants + 16})
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	}}
	defer client.CloseIdleConnections()

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		lats    []time.Duration
		detLats []time.Duration
		firstEr error
		dets    int64
	)
	res := &serveLoadResult{Tenants: tenants}
	start := time.Now()
	for i := 0; i < tenants; i++ {
		f := cheap[i%len(cheap)]
		if i%50 == 0 {
			f = hot
		}
		res.Chunks += len(f.feed.Chunks)
		res.NodeBlocks += len(f.feed.Chunks) * f.blocksPerChunk
		res.WantDets += len(f.feed.Detections)
		wg.Add(1)
		go func(i int, f serveFeed) {
			defer wg.Done()
			tl, dl, err := driveTenant(client, base, fmt.Sprintf("lg%d", i), f, &dets)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstEr == nil {
				firstEr = fmt.Errorf("tenant lg%d: %w", i, err)
			}
			lats = append(lats, tl...)
			detLats = append(detLats, dl...)
		}(i, f)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	if firstEr != nil {
		return nil, firstEr
	}
	res.Detections = int(dets)
	if res.Detections != res.WantDets {
		return nil, fmt.Errorf("serve: %d detection events on the wire, want %d (events lost under load)",
			res.Detections, res.WantDets)
	}
	if len(lats) != res.Chunks {
		return nil, fmt.Errorf("serve: %d latency samples for %d chunks", len(lats), res.Chunks)
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	res.P50 = lats[len(lats)/2]
	res.P99 = lats[len(lats)*99/100]
	if len(detLats) == 0 {
		return nil, fmt.Errorf("serve: no detection end-to-end latency samples (hot feed produced no detections?)")
	}
	sort.Slice(detLats, func(a, b int) bool { return detLats[a] < detLats[b] })
	res.DetP50 = detLats[len(detLats)/2]
	res.DetP99 = detLats[len(detLats)*99/100]
	return res, nil
}

func (r *serveLoadResult) print() {
	fmt.Printf("%d tenants closed-loop over loopback HTTP\n", r.Tenants)
	fmt.Printf("  chunks ingested:   %d (%d node-blocks)\n", r.Chunks, r.NodeBlocks)
	fmt.Printf("  wall time:         %.1f s\n", r.Wall.Seconds())
	fmt.Printf("  throughput:        %.0f node-blocks/s\n", r.BlocksPerSec())
	fmt.Printf("  ingest latency:    p50 %.1f ms, p99 %.1f ms (POST -> confirmation event)\n",
		float64(r.P50.Microseconds())/1000, float64(r.P99.Microseconds())/1000)
	fmt.Printf("  detection e2e:     p50 %.1f ms, p99 %.1f ms (chunk POST -> detection event)\n",
		float64(r.DetP50.Microseconds())/1000, float64(r.DetP99.Microseconds())/1000)
	fmt.Printf("  detections on wire: %d (all %d expected confirmations delivered)\n",
		r.Detections, r.WantDets)
}

// runServeExp is the -exp serve entry point: run the load generator and
// print its report.
func runServeExp(tenants int, addr string) error {
	res, err := measureServe(tenants, addr)
	if err != nil {
		return err
	}
	res.print()
	return nil
}
