package server

import (
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
)

var updateReplies = flag.Bool("update-replies", false, "rewrite testdata/replies.json from the running code")

// goldenCase is one request of the reply corpus and the exact reply it
// must draw: status, body bytes and the solver-cache counter deltas the
// request causes. Pad appends that many spaces to Body (the 413 cases).
type goldenCase struct {
	Name   string        `json:"name"`
	Path   string        `json:"path"`
	Body   string        `json:"body"`
	Pad    int           `json:"pad,omitempty"`
	Status int           `json:"status"`
	Reply  string        `json:"reply"`
	Cache  CacheSnapshot `json:"cache"`
}

// goldenConfig is the server the corpus is replayed against: a small
// exact cap so dispatch reaches the asymptotic tier cheaply, a small
// body cap for the 413s, and a small cache so the replay evicts and
// recycles.
var goldenConfig = Config{MaxDim: 64, MaxBodyBytes: 1024, CacheSize: 4, Workers: 1}

// TestReplyCorpus replays testdata/replies.json in order through one
// server's Handler and byte-compares every reply and cache delta: the
// five SwitchSpec endpoints must answer every branch (exact, cached,
// asymptotic, mixed-tier, multi-group, both admission policies, and
// the 400/413/422 contract) exactly as recorded. The bytes were
// recorded on amd64; where the compiler fuses multiply-adds (arm64,
// ppc64le, s390x) the last bits of the measures differ.
func TestReplyCorpus(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("reply bytes are recorded on amd64")
	}
	const file = "testdata/replies.json"
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	s, err := New(goldenConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := range cases {
		c := &cases[i]
		before := s.Metrics().Snapshot().Cache
		req := httptest.NewRequest("POST", c.Path, strings.NewReader(c.Body+strings.Repeat(" ", c.Pad)))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		after := s.Metrics().Snapshot().Cache
		delta := CacheSnapshot{
			Hits:            after.Hits - before.Hits,
			Misses:          after.Misses - before.Misses,
			SharedInFlight:  after.SharedInFlight - before.SharedInFlight,
			Evictions:       after.Evictions - before.Evictions,
			SolversRecycled: after.SolversRecycled - before.SolversRecycled,
		}
		if *updateReplies {
			c.Status, c.Reply, c.Cache = rec.Code, rec.Body.String(), delta
			continue
		}
		if rec.Code != c.Status || rec.Body.String() != c.Reply {
			t.Errorf("%s: %s replied %d %q\nwant %d %q", c.Name, c.Path, rec.Code, rec.Body.String(), c.Status, c.Reply)
		}
		if delta != c.Cache {
			t.Errorf("%s: cache delta %+v, want %+v", c.Name, delta, c.Cache)
		}
	}
	if *updateReplies {
		out, err := json.MarshalIndent(cases, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
