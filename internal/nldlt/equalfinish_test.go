package nldlt

import (
	"errors"
	"math"
	"slices"
	"testing"

	"nlfl/internal/platform"
	"nlfl/internal/stats"
)

// refChunkForDeadline is chunkForDeadline as it was before integer α
// multiplied: every power is math.Pow.
func refChunkForDeadline(offset, bw, speed, alpha, t float64) float64 {
	if offset >= t {
		return 0
	}
	budget := t - offset
	cost := func(x float64) float64 { return x/bw + math.Pow(x, alpha)/speed }
	hi := 1.0
	for cost(hi) < budget {
		hi *= 2
		if math.IsInf(hi, 0) {
			return hi
		}
	}
	lo := 0.0
	for i := 0; i < 200 && hi-lo > 1e-15*(1+hi); i++ {
		mid := (lo + hi) / 2
		if cost(mid) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// refSolveEqualFinish is solveEqualFinish as it was before identical
// workers shared one chunk solve and integer α multiplied: one
// refChunkForDeadline call per worker per step. The solver must
// reproduce it bit for bit.
func refSolveEqualFinish(p *platform.Platform, l Load, order []int, onePort bool) (Result, error) {
	if err := l.Validate(); err != nil {
		return Result{}, err
	}
	idxs := order
	if idxs == nil {
		idxs = make([]int, p.P())
		for i := range idxs {
			idxs[i] = i
		}
	}
	totalFor := func(t float64) ([]float64, float64) {
		data := make([]float64, p.P())
		sum := 0.0
		offset := 0.0
		for _, i := range idxs {
			w := p.Worker(i)
			x := refChunkForDeadline(offset, w.Bandwidth, w.Speed, l.Alpha, t)
			data[i] = x
			sum += x
			if onePort {
				offset += w.CommTime(x)
			}
		}
		return data, sum
	}
	tHi := 1.0
	for _, sum := totalFor(tHi); sum < l.N; _, sum = totalFor(tHi) {
		tHi *= 2
		if math.IsInf(tHi, 0) {
			return Result{}, errors.New("nldlt: failed to bracket the makespan")
		}
	}
	tLo := 0.0
	for i := 0; i < 200 && tHi-tLo > 1e-14*(1+tHi); i++ {
		mid := (tLo + tHi) / 2
		if _, sum := totalFor(mid); sum < l.N {
			tLo = mid
		} else {
			tHi = mid
		}
	}
	data, sum := totalFor(tHi)
	if sum > 0 {
		scale := l.N / sum
		for i := range data {
			data[i] *= scale
		}
	}
	res := Result{Data: data, Makespan: tHi, Load: l}
	if onePort {
		res.Order = append([]int(nil), idxs...)
	}
	return res, nil
}

type namedPlatform struct {
	name string
	pl   *platform.Platform
}

// equalFinishPlatforms covers runs of identical workers (where the chunk
// solve is shared), all-distinct workers (where it never is) and mixes.
func equalFinishPlatforms(t *testing.T) []namedPlatform {
	t.Helper()
	mk := func(speeds, bws []float64) *platform.Platform {
		ws := make([]platform.Worker, len(speeds))
		for i := range ws {
			ws[i] = platform.Worker{Speed: speeds[i], Bandwidth: bws[i]}
		}
		pl, err := platform.New(ws)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	pls := []namedPlatform{
		{"hom1", homPlatform(t, 1)},
		{"hom2", homPlatform(t, 2)},
		{"hom37", homPlatform(t, 37)},
		{"hom100", homPlatform(t, 100)},
		{"het5", hetPlatform(t, 1, 5)},
		{"het100", hetPlatform(t, 2, 100)},
		{"mixed5", mk([]float64{1, 1, 2, 2, 1}, []float64{1, 1, 1, 3, 3})},
	}
	// Two to three speed and bandwidth classes over 100 workers, once in
	// runs and once shuffled.
	r := stats.NewRNG(9)
	speeds, bws := make([]float64, 100), make([]float64, 100)
	for i := range speeds {
		speeds[i] = []float64{1, 2.5, 4}[i*3/100]
		bws[i] = []float64{1, 7}[i%2]
	}
	pls = append(pls, namedPlatform{"runs100", mk(speeds, bws)})
	r.Shuffle(len(speeds), func(i, j int) { speeds[i], speeds[j] = speeds[j], speeds[i] })
	pls = append(pls, namedPlatform{"shuffled100", mk(speeds, bws)})
	return pls
}

func TestSolveEqualFinishMatchesReference(t *testing.T) {
	r := stats.NewRNG(3)
	for _, np := range equalFinishPlatforms(t) {
		name, pl := np.name, np.pl
		for _, alpha := range []float64{1.5, 2, 3} {
			for _, n := range []float64{3, 1e4} {
				l := Load{N: n, Alpha: alpha}
				orders := [][]int{nil, r.Perm(pl.P())}
				for _, onePort := range []bool{false, true} {
					for _, order := range orders {
						if !onePort && order != nil {
							continue
						}
						got, err := solveEqualFinish(pl, l, order, onePort)
						want, werr := refSolveEqualFinish(pl, l, order, onePort)
						if err != nil || werr != nil {
							t.Fatalf("%s α=%v N=%v onePort=%v: errors %v / %v", name, alpha, n, onePort, err, werr)
						}
						if !slices.Equal(got.Data, want.Data) || got.Makespan != want.Makespan || !slices.Equal(got.Order, want.Order) {
							t.Fatalf("%s α=%v N=%v onePort=%v: result differs from the reference\n got %v %v\nwant %v %v",
								name, alpha, n, onePort, got.Makespan, got.Data, want.Makespan, want.Data)
						}
					}
				}
			}
		}
	}
}

// TestPowAlphaMatchesPow checks the products that replace math.Pow for
// α = 2 and α = 3 on random x over [2⁻⁵³, 2¹⁰²³], overflow included, and
// at 0 and +Inf. Below that range a subnormal power could round twice in
// Pow; chunkForDeadline never goes there: its bisection stops once
// hi-lo ≤ 1e-15·(1+hi), so it evaluates no x below ~2⁻⁵², whose cube is
// ~2⁻¹⁵⁶, far above the subnormals.
func TestPowAlphaMatchesPow(t *testing.T) {
	r := stats.NewRNG(11)
	xs := []float64{0, math.Inf(1), math.Ldexp(1, -53), math.MaxFloat64}
	for range 1 << 18 {
		xs = append(xs, math.Ldexp(1+r.Float64(), -53+r.Intn(1076)))
	}
	for _, alpha := range []float64{2, 3} {
		for _, x := range xs {
			if got, want := powAlpha(x, alpha), math.Pow(x, alpha); got != want {
				t.Fatalf("powAlpha(%v, %v) = %v, math.Pow gives %v", x, alpha, got, want)
			}
		}
	}
}
