package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"xbar/internal/dist"
	"xbar/internal/rng"
)

// holdTime is the mean holding time 1/mu of the virtual connections
// that drive the BPP arrival process. It sets how long a burst lasts:
// 10 ms gives hundreds of independent bursts per phase, so the tail of
// the latency distribution does not hinge on a handful of them.
const holdTime = 10 * time.Millisecond

// bppSource fits the paper's BPP source to an offered request rate:
// arrivals of an infinite-server group with lambda(k) = alpha + beta*k
// and mean busy count M = rate*holdTime. Smooth sources get the integer
// Bernoulli population S = round(M/(1-z)).
func bppSource(rate float64, a arrivals) (dist.BPP, error) {
	mu := 1 / holdTime.Seconds()
	m := rate / mu
	switch {
	case a.z > 1:
		return dist.FitMeanPeakedness(m, a.z, mu)
	case a.z < 1:
		s := math.Round(m / (1 - a.z))
		gamma := m * mu / (s - m)
		return dist.BPP{Alpha: s * gamma, Beta: -gamma, Mu: mu}, nil
	}
	return dist.BPP{Alpha: rate, Mu: mu}, nil
}

// schedule draws the open-loop send instants over d: the arrival epochs
// of the BPP source simulated over a virtual population (a birth-death
// chain, alpha + beta*k births and k*mu deaths). The schedule depends
// on the seed alone, never on how fast the server answers.
func schedule(st *rng.Stream, rate float64, a arrivals, d time.Duration) ([]time.Duration, error) {
	src, err := bppSource(rate, a)
	if err != nil {
		return nil, err
	}
	if err := src.Validate(0); err != nil {
		return nil, err
	}
	// Start the chain at its mean and let it run ten holding times
	// before the phase begins.
	k := int(math.Round(src.Mean()))
	t := -10 * holdTime.Seconds()
	end := d.Seconds()
	out := make([]time.Duration, 0, int(rate*end*1.2)+16)
	for {
		birth := src.Rate(k)
		total := birth + float64(k)*src.Mu
		t += st.Exp(total)
		if t >= end {
			return out, nil
		}
		if st.Float64()*total < birth {
			k++
			if t >= 0 {
				out = append(out, time.Duration(t*float64(time.Second)))
			}
		} else {
			k--
		}
	}
}

// sampler draws pool indices by popularity.
type sampler struct {
	cum []float64
}

func newSampler(weight []float64) *sampler {
	cum := make([]float64, len(weight))
	sum := 0.0
	for i, w := range weight {
		sum += w
		cum[i] = sum
	}
	return &sampler{cum: cum}
}

func (s *sampler) draw(st *rng.Stream) int32 {
	u := st.Float64() * s.cum[len(s.cum)-1]
	return int32(sort.SearchFloat64s(s.cum, u))
}

func (s *sampler) seq(st *rng.Stream, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = s.draw(st)
	}
	return out
}

// plan is everything a run sends, drawn from the seed: the open-loop
// schedule and body sequence, the closed-loop body sequence, and the
// workload's pool and warm pass.
type plan struct {
	dur    time.Duration   // open-loop phase length
	at     []time.Duration // open-loop send instants, from phase start
	open   []int32         // pool index per open-loop request
	closed []int32         // closed-loop pool indices, used cyclically
}

// closedLen is the closed-loop sequence length; callers wrap around it.
const closedLen = 1 << 16

func makePlan(wl *workload, seed uint64, openDur time.Duration) (*plan, error) {
	root := rng.NewStream(seed ^ hashString("schedule"))
	at, err := schedule(root.Substream(1), wl.rate, wl.arrival, openDur)
	if err != nil {
		return nil, err
	}
	smp := newSampler(wl.weight)
	return &plan{
		dur:    openDur,
		at:     at,
		open:   smp.seq(root.Substream(2), len(at)),
		closed: smp.seq(root.Substream(3), closedLen),
	}, nil
}

// hash fingerprints every input the run sends — instants, body
// sequences, pool bodies and the warm pass — so two commits can be
// shown to have replayed identical inputs.
func (p *plan) hash(wl *workload) string {
	var b []byte
	put := func(x uint64) { b = binary.LittleEndian.AppendUint64(b, x) }
	for _, t := range p.at {
		put(uint64(t))
	}
	for _, seq := range [][]int32{p.open, p.closed} {
		put(uint64(len(seq)))
		for _, i := range seq {
			put(uint64(i))
		}
	}
	for _, r := range wl.pool {
		put(uint64(len(r.path)))
		b = append(b, r.path...)
		put(uint64(len(r.body)))
		b = append(b, r.body...)
	}
	for _, i := range wl.hot {
		put(uint64(i))
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:12])
}
