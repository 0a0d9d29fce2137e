package samplesort

import (
	"errors"
	"math"

	"nlfl/internal/stats"
)

// NonDivisibleFraction returns (W - W_partial)/W = log p / log N for
// sorting: the share of the N·log N total work that the p-way parallel
// phase cannot claim (Section 3.1). It vanishes as N grows — sorting is
// "almost divisible", in sharp contrast with the α-power loads of
// Section 2.
func NonDivisibleFraction(n, p int) float64 {
	if n < 2 || p < 1 {
		return 0
	}
	f := math.Log2(float64(p)) / math.Log2(float64(n))
	if f > 1 {
		return 1
	}
	return f
}

// TheoremB4Threshold returns the high-probability bucket-size bound of
// Theorem B.4 (Blelloch et al., ref [40]) with the paper's parameters
// α = 1 + (1/log N)^(1/3): MaxSize ≤ (N/p)·(1 + (1/log N)^(1/3)) with
// probability at least 1 - N^(-1/3) when s = log²N.
func TheoremB4Threshold(n, p int) float64 {
	if n < 2 {
		return float64(n)
	}
	return float64(n) / float64(p) * (1 + math.Pow(1/math.Log2(float64(n)), 1.0/3.0))
}

// TheoremB4FailureBound returns the stated tail probability N^(-1/3).
func TheoremB4FailureBound(n int) float64 {
	if n < 1 {
		return 1
	}
	return math.Pow(float64(n), -1.0/3.0)
}

// CostModel is the Section 3.1 execution-time model of one sample sort run
// on p identical unit-speed workers, in comparison units. N is a float64
// so the asymptotic regime (the paper's claims hold for log N ≫ p·log p,
// i.e. astronomically large N) can be evaluated analytically.
type CostModel struct {
	N    float64
	P, S int
	// Step1 is the master-side sample sort: s·p·log(s·p).
	Step1 float64
	// Step2 is the master-side routing: N·log p.
	Step2 float64
	// Step3 is the parallel bucket sort: MaxBucket·log MaxBucket.
	Step3 float64
	// Sequential is the single-machine reference N·log N.
	Sequential float64
}

// Total returns Step1 + Step2 + Step3 (the steps are sequential phases).
func (c CostModel) Total() float64 { return c.Step1 + c.Step2 + c.Step3 }

// Speedup returns Sequential / Total — close to p for large N, the
// Section 3.1 optimality claim.
func (c CostModel) Speedup() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return c.Sequential / t
}

// Cost evaluates the model for N keys on p workers with oversampling s
// (0 → ⌈log²N⌉), assuming the ideal largest bucket
// (N/p)·(1+(1/log N)^(1/3)).
func Cost(n float64, p, s int) CostModel {
	if s == 0 && n >= 2 {
		l := math.Log2(n)
		s = int(math.Ceil(l * l))
	}
	if s < 1 {
		s = 1
	}
	c := CostModel{N: n, P: p, S: s}
	sp := float64(s * p)
	if sp > 1 {
		c.Step1 = sp * math.Log2(sp)
	}
	if p > 1 && n > 0 {
		c.Step2 = n * math.Log2(float64(p))
	}
	if n >= 2 {
		mb := n / float64(p) * (1 + math.Pow(1/math.Log2(n), 1.0/3.0))
		if mb > 1 {
			c.Step3 = mb * math.Log2(mb)
		}
		c.Sequential = n * math.Log2(n)
	}
	return c
}

// ConcentrationResult summarizes a Monte-Carlo check of Theorem B.4.
type ConcentrationResult struct {
	N, P, S int
	Trials  int
	// Exceed counts trials whose max bucket exceeded the threshold.
	Exceed int
	// MeanRatio is the average MaxBucket/(N/p) over trials.
	MeanRatio float64
	// Threshold and FailureBound echo the theorem's constants.
	Threshold    float64
	FailureBound float64
}

// EmpiricalFailureRate returns Exceed/Trials.
func (c ConcentrationResult) EmpiricalFailureRate() float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Exceed) / float64(c.Trials)
}

// CheckConcentration routes N uniform random keys to p buckets with
// oversampling s (0 → log²N) in `trials` independent trials and measures
// how often the largest bucket exceeds the Theorem B.4 threshold. The
// empirical failure rate should be at most about N^(-1/3). The theorem is
// about Step 2's bucket sizes, so nothing is sorted.
func CheckConcentration(n, p, s, trials int, seed int64) (ConcentrationResult, error) {
	if trials <= 0 {
		return ConcentrationResult{}, errors.New("samplesort: trials must be positive")
	}
	if s == 0 {
		s = DefaultOversampling(n)
	}
	res := ConcentrationResult{
		N: n, P: p, S: s, Trials: trials,
		Threshold:    TheoremB4Threshold(n, p),
		FailureBound: TheoremB4FailureBound(n),
	}
	r := stats.NewRNG(seed)
	var ratios stats.Welford
	xs := make([]float64, n)
	for trial := 0; trial < trials; trial++ {
		for i := range xs {
			xs[i] = r.Float64()
		}
		tr, err := Route(xs, Config{Workers: p, Oversampling: s, Seed: r.Int63()})
		if err != nil {
			return res, err
		}
		ratios.Add(tr.MaxBucketRatio())
		if float64(tr.MaxBucket) > res.Threshold {
			res.Exceed++
		}
	}
	res.MeanRatio = ratios.Mean()
	return res, nil
}
