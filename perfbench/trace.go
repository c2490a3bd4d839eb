package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xbar/internal/cluster"
)

// headerRequest carries the benchmark-assigned request id from the
// client to the handler span.
const headerRequest = "X-Bench-Request"

// Span names.
const (
	spanClient    = "transport.roundtrip" // client send to last reply byte
	spanHandler   = "server.handler"      // entry node's Handler().ServeHTTP
	spanPeer      = "cluster.peer"        // owner's handler on a forwarded request
	spanReplicate = "cluster.replicate"   // successor's handler on a replication POST
)

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch; Req is the benchmark's request id (0 for spans outside a
// request, such as the replay leg).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Node   int    `json:"node"`
	Origin int    `json:"origin,omitempty"` // forwarding node + 1 on cluster.peer spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are linked and written out when
// the run ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	if !t.on.Load() {
		return
	}
	s.ID = t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a root span (the replay leg).
func (t *tracer) timed(name string, fn func() error) (time.Duration, error) {
	s := span{Name: name, Start: t.now()}
	err := fn()
	s.End = t.now()
	t.add(s)
	return s.dur(), err
}

// wrap records a span around node's handler. Requests a peer forwarded
// here are cluster.peer spans (their origin is the forwarding node);
// replication POSTs are cluster.replicate spans.
func (t *tracer) wrap(node int, ids []string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		s := span{Name: spanHandler, Node: node, Start: start, End: t.now()}
		s.Req, _ = strconv.ParseUint(r.Header.Get(headerRequest), 10, 64)
		if from := r.Header.Get(cluster.HeaderForwarded); from != "" {
			s.Name = spanPeer
			for i, id := range ids {
				if id == from {
					s.Origin = i + 1
				}
			}
		} else if r.Header.Get(cluster.HeaderReplicate) != "" {
			s.Name = spanReplicate
		}
		t.add(s)
	})
}

// take returns the recorded spans and stops recording.
func (t *tracer) take() []span {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// requestTrace is the linked span tree of one benchmark request.
type requestTrace struct {
	client  span
	handler *span
	peer    *span
}

// link assigns parents: a handler span's parent is the client span of
// its request id; a cluster.peer span's parent is the origin node's
// handler span that encloses it (the forward runs inside it). It
// returns the traces by request id.
func link(spans []span) map[uint64]*requestTrace {
	reqs := make(map[uint64]*requestTrace)
	byNode := make(map[int][]*span)
	for i := range spans {
		s := &spans[i]
		if s.Name == spanClient {
			reqs[s.Req] = &requestTrace{client: *s}
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Name != spanHandler || s.Req == 0 {
			continue
		}
		if rt := reqs[s.Req]; rt != nil {
			s.Parent = rt.client.ID
			rt.handler = s
			byNode[s.Node] = append(byNode[s.Node], s)
		}
	}
	for _, hs := range byNode {
		sort.Slice(hs, func(i, j int) bool { return hs[i].Start < hs[j].Start })
	}
	for i := range spans {
		s := &spans[i]
		if s.Name != spanPeer || s.Origin == 0 {
			continue
		}
		hs := byNode[s.Origin-1]
		k := sort.Search(len(hs), func(j int) bool { return hs[j].Start > s.Start }) - 1
		for ; k >= 0 && s.Start-hs[k].Start < int64(time.Second); k-- {
			if hs[k].End >= s.End {
				s.Parent, s.Req = hs[k].ID, hs[k].Req
				if rt := reqs[s.Req]; rt != nil && rt.peer == nil {
					rt.peer = s
				}
				break
			}
		}
	}
	return reqs
}

// writeSpans writes one JSON span per line.
func writeSpans(file string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	if err := w.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", file, err)
	}
	return nil
}
