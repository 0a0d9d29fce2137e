package iterative

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"nlfl/internal/solve"
	"nlfl/internal/stats"
)

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func TestWaterFillLinearEqualWorkers(t *testing.T) {
	s, err := WaterFill(Params{Unit: []float64{1e-5, 1e-5, 1e-5, 1e-5}, Load: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(s.Kappa); math.Abs(got-4096) > 1e-9 {
		t.Fatalf("Σκ = %v, want 4096 exactly", got)
	}
	for i, k := range s.Kappa {
		if math.Abs(k-1024) > 1e-6 {
			t.Fatalf("worker %d got %v, want 1024 (equal workers, equal shares)", i, k)
		}
	}
	if want := 1024 * 1e-5; math.Abs(s.Theta-want) > 1e-3*want {
		t.Fatalf("θ = %v, want ≈ %v", s.Theta, want)
	}
}

func TestWaterFillLinearProportionalToRates(t *testing.T) {
	// κᵢ/κⱼ must equal rateᵢ/rateⱼ when overheads are zero.
	unit := []float64{1. / 4e4, 1. / 8e4, 1. / 2e4}
	s, err := WaterFill(Params{Unit: unit, Load: 9216})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Kappa[1] / s.Kappa[0]; math.Abs(r-2) > 1e-6 {
		t.Fatalf("κ₁/κ₀ = %v, want 2", r)
	}
	if r := s.Kappa[0] / s.Kappa[2]; math.Abs(r-2) > 1e-6 {
		t.Fatalf("κ₀/κ₂ = %v, want 2", r)
	}
}

func TestWaterFillCommOverheadExcludesSlowStarter(t *testing.T) {
	// Worker 1's fixed overhead exceeds the water level: it must get 0,
	// and the others absorb the whole load.
	s, err := WaterFill(Params{
		Unit: []float64{1e-5, 1e-5},
		Comm: []float64{0, 1e3},
		Load: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Kappa[1] != 0 {
		t.Fatalf("over-water worker got κ=%v, want 0", s.Kappa[1])
	}
	if math.Abs(s.Kappa[0]-1000) > 1e-9 {
		t.Fatalf("surviving worker got %v, want the full 1000", s.Kappa[0])
	}
}

func TestWaterFillEqualizesFinishTimes(t *testing.T) {
	// The solved split's defining property: every loaded worker finishes
	// at θ under the (possibly nonlinear) time model.
	for _, gamma := range []float64{0, 0.3, 2.5} {
		p := Params{
			Gamma: gamma,
			Unit:  []float64{2e-5, 1e-5, 5e-5},
			Comm:  []float64{1e-3, 2e-3, 0},
			Sigma: []float64{1e-4, 3e-4, 0},
			Load:  5000,
		}
		s, err := WaterFill(p)
		if err != nil {
			t.Fatalf("γ=%v: %v", gamma, err)
		}
		for i, k := range s.Kappa {
			if k <= 0 {
				continue
			}
			c, m, sg := p.Comm[i], p.Unit[i], p.Sigma[i]
			var ti float64
			if gamma == 0 {
				ti = c + m*k
			} else {
				a := c + gamma*c*c
				b := 2*gamma*c*m + m + gamma*sg*sg
				ti = a + b*k + gamma*m*m*k*k
			}
			if math.Abs(ti-s.Theta) > 1e-6*s.Theta {
				t.Fatalf("γ=%v worker %d finishes at %v, want θ=%v", gamma, i, ti, s.Theta)
			}
		}
	}
}

func TestWaterFillVarianceTax(t *testing.T) {
	// Two otherwise identical workers: the noisy one must get strictly
	// less load once γ > 0 — the no-free-lunch term at work.
	s, err := WaterFill(Params{
		Gamma: 1,
		Unit:  []float64{1e-4, 1e-4},
		Sigma: []float64{0, 5e-2},
		Load:  2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Kappa[1] >= s.Kappa[0] {
		t.Fatalf("noisy worker got κ=%v ≥ quiet worker's %v", s.Kappa[1], s.Kappa[0])
	}
}

func TestWaterFillGammaContinuity(t *testing.T) {
	// γ→0 must approach the linear branch, not jump (the closed form
	// divides by γ; the limit is implemented separately).
	lin, err := WaterFill(Params{Unit: []float64{1e-5, 3e-5}, Comm: []float64{1e-4, 0}, Load: 3000})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := WaterFill(Params{Gamma: 1e-12, Unit: []float64{1e-5, 3e-5}, Comm: []float64{1e-4, 0}, Load: 3000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range lin.Kappa {
		if math.Abs(lin.Kappa[i]-tiny.Kappa[i]) > 1e-3*lin.Kappa[i] {
			t.Fatalf("worker %d: linear κ=%v vs γ=1e-12 κ=%v", i, lin.Kappa[i], tiny.Kappa[i])
		}
	}
}

func TestWaterFillExactLoad(t *testing.T) {
	s, err := WaterFill(Params{Gamma: 0.7, Unit: []float64{1e-5, 2e-5, 7e-5}, Sigma: []float64{1e-3, 0, 2e-3}, Load: 9216})
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(s.Kappa); got != 9216 {
		// The final rescale pins Σκ to the load bit-exactly so the plan
		// snapping sees the true total.
		if math.Abs(got-9216) > 1e-9 {
			t.Fatalf("Σκ = %v, want 9216", got)
		}
	}
}

func TestWaterFillBadParams(t *testing.T) {
	cases := []Params{
		{Load: 100},                                                           // no workers
		{Unit: []float64{1e-5}, Load: 0},                                      // zero load
		{Unit: []float64{0}, Load: 100},                                       // zero unit time
		{Unit: []float64{-1e-5}, Load: 100},                                   // negative unit time
		{Unit: []float64{1e-5}, Load: math.NaN()},                             // NaN load
		{Unit: []float64{1e-5}, Gamma: -1, Load: 100},                         // negative gamma
		{Unit: []float64{1e-5}, Comm: nil, Sigma: []float64{1, 2}, Load: 100}, // sigma length
		{Unit: []float64{1e-5}, Comm: []float64{-1}, Load: 100},               // negative overhead
	}
	for i, p := range cases {
		if _, err := WaterFill(p); !errors.Is(err, ErrBadParams) {
			t.Fatalf("case %d: err = %v, want ErrBadParams", i, err)
		}
	}
}

func TestWaterFillSingleWorker(t *testing.T) {
	s, err := WaterFill(Params{Unit: []float64{1e-5}, Load: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if s.Kappa[0] != 1024 {
		t.Fatalf("single worker got %v, want the whole load", s.Kappa[0])
	}
}

// A load past the old cap of 2²⁰⁰ on θ is still reachable: κ grows like
// √θ, so Load = 10⁶⁰ needs θ ≈ 2.2·10¹¹⁹, and WaterFill solves it.
func TestWaterFillReachesLoadPastOldCap(t *testing.T) {
	const load = 1e60
	s, err := WaterFill(Params{Unit: []float64{1, 2}, Gamma: 0.5, Load: load})
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(s.Kappa); math.Abs(got-load) > 1e-12*load {
		t.Fatalf("Σκ = %v, want %v", got, load)
	}
	if s.Theta < 1e119 || s.Theta > 1e120 || math.IsInf(s.Theta, 0) {
		t.Fatalf("θ = %v, want about 2.2e119", s.Theta)
	}
}

// For γ > 1/4 the product inside κ overflows before θ does: at γ = 1 and
// unit time 1, κ = 5e153 needs θ ≈ 2.5e307, where 4γθ is past
// MaxFloat64. That water level is finite, so the load is feasible. The
// final rescale κ·(Load/Σκ) rounds twice, so Σκ may miss the load by an
// ulp (here it does: 4.9999999999999994e153).
func TestWaterFillPastKappaOverflow(t *testing.T) {
	const load = 5e153
	s, err := WaterFill(Params{Unit: []float64{1}, Gamma: 1, Load: load})
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(s.Kappa); math.Abs(got-load) > load*0x1p-52 {
		t.Fatalf("Σκ = %v, want %v", got, load)
	}
	if s.Theta < 2.4e307 || s.Theta > 2.6e307 {
		t.Fatalf("θ = %v, want about 2.5e307", s.Theta)
	}
	// Past ~1.3e154, m² overflows in 4γm²d and in b², and σ² does in b²
	// alone: x would read NaN or 0, and every level would count as short.
	// A worker with m = 1e-300 and σ = 1e154 has r = √x below the
	// smallest float, so only the (d/b) form of the root sees its load.
	for _, p := range []Params{
		{Unit: []float64{1e155}, Gamma: 1, Load: 1e-3},
		{Unit: []float64{1e155, 2e155}, Gamma: 1, Load: 1e-3},
		{Unit: []float64{1}, Sigma: []float64{1e78}, Gamma: 1, Load: 1e-3},
		{Unit: []float64{1e-300}, Sigma: []float64{1e154}, Gamma: 1, Load: 1e-3},
	} {
		s, err := WaterFill(p)
		if err != nil {
			t.Errorf("%+v: %v", p, err)
			continue
		}
		if got := sum(s.Kappa); got != p.Load {
			t.Errorf("%+v: Σκ = %v, want %v", p, got, p.Load)
		}
	}
	// The scaled root agrees with the direct one where both are finite,
	// to the rounding of a few operations.
	for _, c := range []struct{ gamma, m, b, d float64 }{
		{1, 1, 1, 1e300}, {0.3, 2, 3, 1e200}, {5, 1e-3, 1, 1e10}, {1, 1e100, 2e100, 1e100},
		{1, 1, 1e10, 1}, {0.5, 1e-3, 1e5, 1e-2},
	} {
		x := 4 * c.gamma * c.m * c.m * c.d / (c.b * c.b)
		direct := c.b / (2 * c.gamma * c.m * c.m) * (x / (1 + math.Sqrt(1+x)))
		if got := kappaScaled(c.gamma, c.m, c.b, c.d); math.Abs(got-direct) > 1e-14*direct {
			t.Errorf("kappaScaled%+v = %v, the direct root gives %v", c, got, direct)
		}
	}
}

// A load that no finite θ reaches (√θ at θ = MaxFloat64 is about 10¹⁵⁴)
// is infeasible, and says why: the water level is unreachable.
func TestWaterFillUnreachableLoad(t *testing.T) {
	_, err := WaterFill(Params{Unit: []float64{1, 2}, Gamma: 0.5, Load: 1e300})
	if !errors.Is(err, ErrInfeasible) || !errors.Is(err, solve.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrInfeasible wrapping solve.ErrUnreachable", err)
	}
}

// refWaterFill is WaterFill's solve as it was before it went through
// solve.Level: at most 200 doublings of θ, then bisection to 1e-14·hi,
// θ at the bracket's midpoint, κ evaluated again there and rescaled.
func refWaterFill(p Params) (Split, error) {
	total := func(theta float64) float64 {
		s := 0.0
		for i := range p.Unit {
			s += kappaAt(p, i, theta)
		}
		return s
	}
	lo, hi := 0.0, 1.0
	for iter := 0; total(hi) < p.Load; iter++ {
		if iter >= 200 {
			return Split{}, fmt.Errorf("%w: Σκ(θ) never reaches load %v", ErrInfeasible, p.Load)
		}
		lo = hi
		hi *= 2
	}
	for iter := 0; iter < 200 && hi-lo > 1e-14*hi; iter++ {
		mid := 0.5 * (lo + hi)
		if total(mid) < p.Load {
			lo = mid
		} else {
			hi = mid
		}
	}
	theta := 0.5 * (lo + hi)
	kappa := make([]float64, len(p.Unit))
	sum := 0.0
	for i := range kappa {
		kappa[i] = kappaAt(p, i, theta)
		sum += kappa[i]
	}
	if sum <= 0 {
		return Split{}, fmt.Errorf("%w: water level θ=%v loads no worker", ErrInfeasible, theta)
	}
	scale := p.Load / sum
	for i := range kappa {
		kappa[i] *= scale
	}
	return Split{Kappa: kappa, Theta: theta}, nil
}

// WaterFill returns the reference's floats, compared with ==, on 10⁴
// random instances: unit times spread over up to nine decades, linear
// and nonlinear γ, with and without overheads and jitter, and loads from
// 10⁻³ to 10⁹. Where the reference hit its doubling cap, WaterFill must
// either fail too or find θ past 2²⁰⁰.
func TestWaterFillMatchesReference(t *testing.T) {
	r := stats.NewRNG(44)
	decades := func(d float64) float64 { return math.Pow(10, d*r.Float64()) }
	for trial := range 10_000 {
		n := 1 + r.Intn(8)
		p := Params{Unit: make([]float64, n), Load: math.Pow(10, 12*r.Float64()-3)}
		if r.Intn(3) > 0 {
			p.Gamma = math.Pow(10, 8*r.Float64()-6)
		}
		spread := 9 * r.Float64()
		if r.Intn(2) == 0 {
			p.Comm = make([]float64, n)
		}
		if r.Intn(2) == 0 {
			p.Sigma = make([]float64, n)
		}
		for i := range p.Unit {
			p.Unit[i] = 1e-6 * decades(spread)
			if p.Comm != nil {
				p.Comm[i] = r.Float64() * decades(3)
			}
			if p.Sigma != nil {
				p.Sigma[i] = 1e-6 * r.Float64() * decades(3)
			}
		}
		got, err := WaterFill(p)
		want, werr := refWaterFill(p)
		if werr != nil {
			if err == nil && got.Theta <= 0x1p200 {
				t.Fatalf("trial %d: θ = %v, but the reference failed: %v", trial, got.Theta, werr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v, the reference gives θ = %v", trial, err, want.Theta)
		}
		if got.Theta != want.Theta || !slices.Equal(got.Kappa, want.Kappa) {
			t.Fatalf("trial %d: θ %v κ %v, the reference gives θ %v κ %v", trial, got.Theta, got.Kappa, want.Theta, want.Kappa)
		}
	}
}
