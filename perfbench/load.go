package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xbar/internal/cluster"
)

// requestTimeout fails a request that has not completed its reply.
const requestTimeout = 10 * time.Second

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConns:        4 * conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     30 * time.Second,
			DisableCompression:  true,
		},
	}
}

// loader sends pool requests to a fleet and checks every reply against
// the reference replies.
type loader struct {
	c      *http.Client
	f      *fleet
	wl     *workload
	ref    [][]byte // normalized reference reply per pool index
	tr     *tracer  // nil when untraced
	nextID atomic.Uint64

	mu    sync.Mutex
	stats replyStats
}

// replyStats collects what the replies themselves report.
type replyStats struct {
	gridReplies, gridModels, gridCached int64
	autoReplies, autoAsymptotic         int64
	forwarded, local                    int64 // multi-node: served by another node, by the entry node
}

// result is one request's outcome.
type result struct {
	ok        bool
	mismatch  bool
	forwarded bool
	end       time.Time
}

// send posts pool entry idx to node and checks the reply.
func (d *loader) send(node int, idx int32, buf *bytes.Buffer) result {
	r := &d.wl.pool[idx]
	req, err := http.NewRequest(http.MethodPost, d.f.urls[node]+r.path, bytes.NewReader(r.body))
	if err != nil {
		return result{end: time.Now()}
	}
	req.Header.Set("Content-Type", "application/json")
	id := d.nextID.Add(1)
	req.Header.Set(headerRequest, strconv.FormatUint(id, 10))
	var start int64
	if d.tr != nil {
		start = d.tr.now()
	}
	resp, err := d.c.Do(req)
	if err != nil {
		return result{end: time.Now()}
	}
	buf.Reset()
	_, rerr := buf.ReadFrom(resp.Body)
	resp.Body.Close() //lint:allow errcheck the body is fully read; a read error is checked below
	res := result{end: time.Now()}
	if d.tr != nil {
		d.tr.add(span{Name: spanClient, Req: id, Node: node, Start: start, End: d.tr.now()})
	}
	if rerr != nil || resp.StatusCode != http.StatusOK {
		return res
	}
	if !bytes.Equal(normalize(buf.Bytes()), d.ref[idx]) {
		res.mismatch = true
		return res
	}
	res.ok = true
	if len(d.f.urls) > 1 {
		res.forwarded = resp.Header.Get(cluster.HeaderNode) != d.f.ids[node]
	}
	d.observe(r, buf.Bytes(), res.forwarded)
	return res
}

func (d *loader) observe(r *request, body []byte, forwarded bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case r.path == "/v1/grid":
		d.stats.gridReplies++
		d.stats.gridModels += intField(body, `"models":`)
		d.stats.gridCached += intField(body, `"cached":`)
	case r.auto:
		d.stats.autoReplies++
		if bytes.Contains(body, []byte(`"tier":"asymptotic"`)) {
			d.stats.autoAsymptotic++
		}
	}
	if len(d.f.urls) > 1 {
		if forwarded {
			d.stats.forwarded++
		} else {
			d.stats.local++
		}
	}
}

func (d *loader) takeStats() replyStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	d.stats = replyStats{}
	return s
}

// intField reads the first top-level integer after key (the reply
// encoder writes compact JSON).
func intField(body []byte, key string) int64 {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0
	}
	j := i + len(key)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	n, _ := strconv.ParseInt(string(body[j:k]), 10, 64)
	return n
}

// normalize blanks the one field that legitimately differs between a
// cold reference server and a warm node: the top-level "cached" flag
// (a count on /v1/grid). Every other byte must match.
func normalize(body []byte) []byte {
	key := []byte(`"cached":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return body
	}
	j := i + len(key)
	k := j
	for k < len(body) && body[k] != ',' && body[k] != '}' {
		k++
	}
	out := make([]byte, 0, len(body))
	out = append(out, body[:j]...)
	out = append(out, '_')
	return append(out, body[k:]...)
}

// phase is the outcome of one load phase.
type phase struct {
	lat       []float64     // ms per request (+Inf when it failed); open loop: from its scheduled send time
	cpu       []float64     // serial loop: process CPU ms per request (+Inf when it failed)
	lag       []float64     // open loop: ms the generator woke late, per request it slept for
	chunks    []chunk       // serial and closed loop: the stretches run between readings of the host's pace
	heap      []float64     // serial and closed loop: live heap in bytes after each chunk
	cpuTime   time.Duration // process CPU time over the phase
	ok        int
	failed    int
	mismatch  int
	elapsed   time.Duration
	attempted int
}

// chunk is one stretch of a serial or closed loop.
type chunk struct {
	end     int           // serial loop: len(lat) after the chunk
	cpuTime time.Duration // process CPU time over the chunk
	pace    float64       // host pace around the chunk (see refTask.pace)
}

// paced runs step for dur in all, in chunks of paceChunk, and reads the
// host's pace before the first chunk and after each, and the live heap
// after each. step runs one chunk of the given length and appends it to
// ph.chunks; the chunk's pace is the mean of the readings on either
// side of it.
func (ph *phase) paced(ref *refTask, dur time.Duration, step func(time.Duration)) error {
	k, err := ref.pace()
	if err != nil {
		return err
	}
	start := time.Now()
	for left := dur; left > 0; left = dur - time.Since(start) {
		step(min(paceChunk, left))
		ph.heap = append(ph.heap, liveHeap())
		next, err := ref.pace()
		if err != nil {
			return err
		}
		ph.chunks[len(ph.chunks)-1].pace = (k + next) / 2
		k = next
	}
	ph.elapsed = time.Since(start)
	return nil
}

// atPace returns the serial loop's latencies and CPU times, each
// multiplied by the pace of its chunk.
func (ph *phase) atPace() (lat, cpu []float64) {
	from := 0
	for _, c := range ph.chunks {
		for i := from; i < c.end; i++ {
			lat = append(lat, c.pace*ph.lat[i])
			cpu = append(cpu, c.pace*ph.cpu[i])
		}
		from = c.end
	}
	return lat, cpu
}

// serialSummary is what the end-to-end metrics take from the serial
// loop: percentiles of its requests' CPU and wall times at the
// reference pace, and of their CPU times as measured.
type serialSummary struct {
	n                int
	cpuP50, cpuP99   float64
	rawP50, rawP99   float64
	wallP50, wallP99 float64
}

func (ph *phase) summary() serialSummary {
	lat, cpu := ph.atPace()
	lat, cpu = sortedCopy(lat), sortedCopy(cpu)
	raw := sortedCopy(ph.cpu)
	return serialSummary{
		n:      len(cpu),
		cpuP50: quantile(cpu, 0.5), cpuP99: quantile(cpu, 0.99),
		rawP50: quantile(raw, 0.5), rawP99: quantile(raw, 0.99),
		wallP50: quantile(lat, 0.5), wallP99: quantile(lat, 0.99),
	}
}

// cpuPerOK is the closed loop's process CPU time per OK reply in
// microseconds, as measured and at the reference pace.
func (ph *phase) cpuPerOK() (measured, atPace float64) {
	var sum float64
	for _, c := range ph.chunks {
		sum += c.pace * c.cpuTime.Seconds()
	}
	ok := float64(max(ph.ok, 1))
	return 1e6 * ph.cpuTime.Seconds() / ok, 1e6 * sum / ok
}

// openLoop sends plan.open at the scheduled instants, round-robin over
// the nodes: a dispatcher releases each request when it is due to conns
// workers. Each request is timed from its scheduled send time to the
// last byte of its reply, so time a request waits for a free
// connection counts.
func (d *loader) openLoop(p *plan, conns int) *phase {
	n := len(p.at)
	ph := &phase{lat: make([]float64, n), lag: make([]float64, 0, n), attempted: n}
	var failed, mismatch atomic.Int64
	cpu0 := processCPU()
	start := time.Now().Add(20 * time.Millisecond)
	due := make(chan int, n) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range due {
				due := start.Add(p.at[i])
				res := d.send(i%len(d.f.urls), p.open[i], &buf)
				if !res.ok {
					ph.lat[i] = math.Inf(1)
					failed.Add(1)
					if res.mismatch {
						mismatch.Add(1)
					}
					continue
				}
				ph.lat[i] = ms(res.end.Sub(due))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The thread is discarded when this goroutine exits locked.
		lockPreciseThread()
		for i := 0; i < n; i++ {
			at := start.Add(p.at[i])
			sleepUntil(at)
			ph.lag = append(ph.lag, ms(time.Since(at)))
			due <- i
		}
		close(due)
	}()
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.cpuTime = processCPU() - cpu0
	ph.failed, ph.mismatch = int(failed.Load()), int(mismatch.Load())
	ph.ok = n - ph.failed
	return ph
}

// serialLoop sends the closed-loop sequence one request at a time,
// round-robin over the nodes, for dur, continuing ph. It times each
// request from send to the last byte of its reply, and reads the
// process CPU clock around it: with nothing else in flight, that is the
// CPU time the request cost, client and server together. It appends one
// chunk to ph.
func (d *loader) serialLoop(p *plan, dur time.Duration, ph *phase) {
	var buf bytes.Buffer
	cpu0 := processCPU()
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		i := ph.attempted
		ph.attempted++
		c0, t0 := processCPU(), time.Now()
		res := d.send(i%len(d.f.urls), p.closed[i%len(p.closed)], &buf)
		c1 := processCPU()
		if !res.ok {
			ph.failed++
			if res.mismatch {
				ph.mismatch++
			}
			ph.lat = append(ph.lat, math.Inf(1))
			ph.cpu = append(ph.cpu, math.Inf(1))
			continue
		}
		ph.ok++
		ph.lat = append(ph.lat, ms(res.end.Sub(t0)))
		ph.cpu = append(ph.cpu, ms(c1-c0))
	}
	took := processCPU() - cpu0
	ph.cpuTime += took
	ph.chunks = append(ph.chunks, chunk{end: len(ph.lat), cpuTime: took})
}

// closedLoop runs conns callers for dur, continuing ph; each sends its
// next request of the mix as soon as the previous reply arrives. It
// appends one chunk to ph.
func (d *loader) closedLoop(p *plan, conns int, dur time.Duration, ph *phase) {
	next := atomic.Int64{}
	next.Store(int64(ph.attempted))
	var ok, failed, mismatch atomic.Int64
	cpu0 := processCPU()
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				res := d.send(i%len(d.f.urls), p.closed[i%len(p.closed)], &buf)
				switch {
				case res.ok:
					ok.Add(1)
				case res.mismatch:
					mismatch.Add(1)
					failed.Add(1)
				default:
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	took := processCPU() - cpu0
	ph.ok += int(ok.Load())
	ph.failed += int(failed.Load())
	ph.mismatch += int(mismatch.Load())
	ph.attempted = int(next.Load())
	ph.cpuTime += took
	ph.chunks = append(ph.chunks, chunk{cpuTime: took})
}

// warm sends the hot set once each, sequentially, round-robin over the
// nodes. It returns the number of failed requests.
func (d *loader) warm() (attempted, failed int) {
	var buf bytes.Buffer
	for i, idx := range d.wl.hot {
		if !d.send(i%len(d.f.urls), int32(idx), &buf).ok {
			failed++
		}
	}
	return len(d.wl.hot), failed
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (p *phase) String() string {
	return fmt.Sprintf("ok %d failed %d (mismatch %d) in %.2fs", p.ok, p.failed, p.mismatch, p.elapsed.Seconds())
}
