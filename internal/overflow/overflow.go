// Package overflow closes the loop on the paper's central premise.
// The paper justifies Pascal (peaky) traffic by citing Wilkinson's
// toll-traffic work [33]: traffic REJECTED by one server group and
// overflowed to another is peakier than Poisson. This package builds
// that system: a primary crossbar whose blocked requests overflow to a
// secondary crossbar, plus the classical analytics —
//
//   - Riordan's formulas for the mean and variance of Erlang-group
//     overflow (validated against simulation);
//   - peakedness measurement of an arbitrary overflow stream by the
//     standard virtual infinite-server construction;
//   - the Wilkinson-style approximation chain: measure (mean, Z) of
//     the overflow, fit a BPP source (internal/dist), and analyze the
//     secondary switch with the paper's own product-form machinery.
//
// The headline experiment shows the BPP-fitted analysis predicting the
// secondary switch's blocking where a mean-only Poisson fit
// underestimates it — precisely why the paper bothers with
// Bernoulli-Poisson-Pascal traffic at all.
package overflow

import (
	"fmt"
	"math"

	"xbar/internal/core"
	"xbar/internal/dist"
	"xbar/internal/eventq"
	"xbar/internal/floats"
	"xbar/internal/link"
	"xbar/internal/rng"
	"xbar/internal/stats"
)

// Riordan returns the mean and variance of the traffic overflowing an
// Erlang loss group of c servers offered a erlangs of Poisson traffic
// (Riordan's classical formulas):
//
//	m = a B(c, a)
//	v = m (1 - m + a / (c + 1 - a + m))
//
// The overflow peakedness v/m always exceeds 1: overflow is peaky.
func Riordan(c int, a float64) (mean, variance float64) {
	m := a * link.ErlangB(c, a)
	v := m * (1 - m + a/(float64(c)+1-a+m))
	return m, v
}

// Config parameterizes the two-stage overflow simulation: a primary
// N x N crossbar offered Poisson traffic; every blocked request
// immediately retries on the secondary M x M crossbar (uniform fresh
// route there); requests blocked at both stages are lost. A virtual
// infinite-server group shadows the overflow stream to measure its
// peakedness without disturbing anything.
type Config struct {
	// PrimaryN and SecondaryN are the two switch sizes.
	PrimaryN, SecondaryN int
	// Lambda is the total Poisson rate offered to the primary.
	Lambda float64
	// Mu is the holding rate everywhere.
	Mu      float64
	Seed    uint64
	Warmup  float64
	Horizon float64
	Batches int
}

// Result reports the two-stage measures.
type Result struct {
	// PrimaryBlocking is the fraction of fresh requests overflowing.
	PrimaryBlocking stats.CI
	// SecondaryBlocking is the fraction of OVERFLOWED requests lost at
	// the secondary.
	SecondaryBlocking stats.CI
	// OverflowMean and OverflowPeakedness are the virtual
	// infinite-server moments of the overflow stream (busy-count mean
	// and variance-to-mean).
	OverflowMean, OverflowPeakedness float64
	// Events counts processed events.
	Events int64
}

type departure struct {
	stage   int // 0 primary, 1 secondary, 2 virtual infinite server
	in, out int
}

// Run simulates the overflow system.
func Run(cfg Config) (*Result, error) {
	if cfg.PrimaryN < 1 || cfg.SecondaryN < 1 {
		return nil, fmt.Errorf("overflow: switch sizes %d, %d", cfg.PrimaryN, cfg.SecondaryN)
	}
	if cfg.Lambda <= 0 || cfg.Mu <= 0 {
		return nil, fmt.Errorf("overflow: lambda %v, mu %v", cfg.Lambda, cfg.Mu)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("overflow: horizon %v", cfg.Horizon)
	}
	batches := cfg.Batches
	if batches == 0 {
		batches = 20
	}
	if batches < 2 {
		return nil, fmt.Errorf("overflow: need >= 2 batches")
	}

	stream := rng.NewStream(cfg.Seed)
	pIn := make([]bool, cfg.PrimaryN)
	pOut := make([]bool, cfg.PrimaryN)
	sIn := make([]bool, cfg.SecondaryN)
	sOut := make([]bool, cfg.SecondaryN)
	virtualBusy := 0

	start, end := cfg.Warmup, cfg.Warmup+cfg.Horizon
	batchLen := cfg.Horizon / float64(batches)
	type counts struct{ fresh, overflowed, lost int64 }
	cs := make([]counts, batches)
	// Virtual infinite-server busy-count time moments.
	var vArea, vArea2, vTime float64
	batchOf := func(t float64) int {
		if t < start || t >= end {
			return -1
		}
		b := int((t - start) / batchLen)
		if b >= batches {
			b = batches - 1
		}
		return b
	}

	var deps eventq.Queue[departure]
	nextArr := stream.Exp(cfg.Lambda)
	now := 0.0
	var events int64
	advance := func(t float64) {
		t1 := math.Min(t, end)
		if t1 > now && now < end {
			lo := math.Max(now, start)
			if t1 > lo {
				dt := t1 - lo
				vArea += float64(virtualBusy) * dt
				vArea2 += float64(virtualBusy) * float64(virtualBusy) * dt
				vTime += dt
			}
		}
		now = t
	}

	for {
		t := nextArr
		isDep := false
		if at, ok := deps.PeekTime(); ok && at < t {
			t, isDep = at, true
		}
		if t >= end {
			advance(end)
			break
		}
		advance(t)
		events++
		if isDep {
			_, d := deps.Pop()
			switch d.stage {
			case 0:
				pIn[d.in] = false
				pOut[d.out] = false
			case 1:
				sIn[d.in] = false
				sOut[d.out] = false
			case 2:
				virtualBusy--
			}
			continue
		}
		nextArr = now + stream.Exp(cfg.Lambda)
		b := batchOf(now)
		if b >= 0 {
			cs[b].fresh++
		}
		in := stream.Intn(cfg.PrimaryN)
		out := stream.Intn(cfg.PrimaryN)
		if !pIn[in] && !pOut[out] {
			pIn[in] = true
			pOut[out] = true
			deps.Push(now+stream.Exp(cfg.Mu), departure{stage: 0, in: in, out: out})
			continue
		}
		// Overflow: shadow onto the virtual infinite server and offer
		// to the secondary.
		if b >= 0 {
			cs[b].overflowed++
		}
		virtualBusy++
		deps.Push(now+stream.Exp(cfg.Mu), departure{stage: 2})
		sin := stream.Intn(cfg.SecondaryN)
		sout := stream.Intn(cfg.SecondaryN)
		if !sIn[sin] && !sOut[sout] {
			sIn[sin] = true
			sOut[sout] = true
			deps.Push(now+stream.Exp(cfg.Mu), departure{stage: 1, in: sin, out: sout})
			continue
		}
		if b >= 0 {
			cs[b].lost++
		}
	}

	res := &Result{Events: events}
	var primB, secB []float64
	for b := 0; b < batches; b++ {
		if cs[b].fresh > 0 {
			primB = append(primB, float64(cs[b].overflowed)/float64(cs[b].fresh))
		}
		if cs[b].overflowed > 0 {
			secB = append(secB, float64(cs[b].lost)/float64(cs[b].overflowed))
		}
	}
	ciOf := func(vals []float64) stats.CI {
		if len(vals) < 2 {
			return stats.CI{Mean: math.NaN(), HalfWidth: math.Inf(1), Level: 0.95}
		}
		return stats.BatchMeans(vals, 0.95)
	}
	res.PrimaryBlocking = ciOf(primB)
	res.SecondaryBlocking = ciOf(secB)
	if vTime > 0 {
		mean := vArea / vTime
		variance := vArea2/vTime - mean*mean
		res.OverflowMean = mean
		if mean > 0 {
			res.OverflowPeakedness = variance / mean
		}
	}
	return res, nil
}

// FitOverflow is the BPP source fitted to an overflow stream's measured
// (mean, Z). Overflow traffic is peaky (Wilkinson: Z >= 1), so a
// measured Z below 1 is sampling noise of a finite run; its smooth fit
// would be a Bernoulli source whose population -alpha/beta is in
// general not an integer, which dist rejects. Such a Z is taken as 1,
// the Poisson fit at the boundary of the peaky family; Z >= 1 fits as
// measured.
func FitOverflow(mean, z, mu float64) (dist.BPP, error) {
	return dist.FitMeanPeakedness(mean, max(z, 1), mu)
}

// SecondaryBPPApprox analyzes the secondary switch with a BPP source
// fitted to the overflow stream's measured (mean, Z) — the paper's
// intended use of the Pascal family (FitOverflow) — returning the
// predicted time-congestion blocking.
func SecondaryBPPApprox(secondaryN int, mean, z, mu float64) (float64, error) {
	src, err := FitOverflow(mean, z, mu)
	if err != nil {
		return 0, err
	}
	routes := float64(secondaryN * secondaryN)
	sw := core.Switch{N1: secondaryN, N2: secondaryN, Classes: []core.Class{{
		Name: "overflow", A: 1,
		Alpha: src.Alpha / routes, Beta: src.Beta / routes, Mu: mu,
	}}}
	res, err := core.Solve(sw)
	if err != nil {
		return 0, err
	}
	return res.Blocking[0], nil
}

// SecondaryPoissonApprox is the mean-only strawman: treat the overflow
// as Poisson at the same mean rate.
func SecondaryPoissonApprox(secondaryN int, mean, mu float64) (float64, error) {
	return SecondaryBPPApprox(secondaryN, mean, 1, mu)
}

// SecondaryBPPCallCongestion predicts what an overflowed REQUEST
// experiences at the secondary: the lambda(k)-weighted (arrival-seen)
// blocking of the fitted BPP model. For peaky traffic this exceeds the
// time congestion — the PASTA gap — and it is the number directly
// comparable to the simulator's per-request loss fraction.
func SecondaryBPPCallCongestion(secondaryN int, mean, z, mu float64) (float64, error) {
	src, err := FitOverflow(mean, z, mu)
	if err != nil {
		return 0, err
	}
	n := secondaryN
	routes := float64(n * n)
	alpha := src.Alpha / routes
	beta := src.Beta / routes
	// Single class, a = 1: unnormalized product form over k with
	// Psi(k) = P(n,k)^2.
	w := make([]float64, n+1)
	w[0] = 1
	for k := 1; k <= n; k++ {
		rate := alpha + beta*float64(k-1)
		w[k] = w[k-1] * rate / (float64(k) * mu) *
			float64(n-k+1) * float64(n-k+1)
	}
	num, den := 0.0, 0.0
	for k := 0; k <= n; k++ {
		rate := alpha + beta*float64(k)
		free := float64(n-k) / float64(n)
		blockProb := 1 - free*free
		num += w[k] * rate * blockProb
		den += w[k] * rate
	}
	if floats.Zero(den) {
		return 1, nil
	}
	return num / den, nil
}
