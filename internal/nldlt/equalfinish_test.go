package nldlt

import (
	"errors"
	"math"
	"slices"
	"testing"

	"nlfl/internal/platform"
	"nlfl/internal/solve"
	"nlfl/internal/stats"
)

// refChunkForDeadline is the largest float X ≥ 0 with
// X/bw + X^α/speed ≤ t - offset, found by bisection on the float64 bit
// pattern over [0, +Inf], which orders non-negative floats; every power
// is math.Pow. chunkForDeadline must return it bit for bit.
func refChunkForDeadline(offset, bw, speed, alpha, t float64) float64 {
	if offset >= t {
		return 0
	}
	budget := t - offset
	lo, hi := math.Float64bits(0), math.Float64bits(math.Inf(1))
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		x := math.Float64frombits(mid)
		if x/bw+math.Pow(x, alpha)/speed <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(lo)
}

// bisectChunkForDeadline is chunkForDeadline as it was before it solved
// exactly: bisection to 1e-15·(1+hi), every power math.Pow. evals, when
// not nil, counts its cost evaluations.
func bisectChunkForDeadline(offset, bw, speed, alpha, t float64, evals *int) float64 {
	if offset >= t {
		return 0
	}
	budget := t - offset
	cost := func(x float64) float64 {
		if evals != nil {
			*evals++
		}
		return x/bw + math.Pow(x, alpha)/speed
	}
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
// workers shared one chunk solve: one chunk call per worker per step,
// with chunk in place of chunkForDeadline.
func refSolveEqualFinish(p *platform.Platform, l Load, order []int, onePort bool,
	chunk func(offset, bw, speed, alpha, t float64) float64) (Result, error) {
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
			x := chunk(offset, w.Bandwidth, w.Speed, l.Alpha, t)
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
						want, werr := refSolveEqualFinish(pl, l, order, onePort, refChunkForDeadline)
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

// solveEqualFinish returns refSolveEqualFinish's floats, compared with
// ==, on 10⁴ random platforms whose speeds and bandwidths spread over up
// to nine decades, one-port in random orders and parallel links, with
// loads from 10⁻³ to 10⁶. The reference solves each chunk with
// chunkForDeadline, which TestChunkForDeadlineMatchesBitBisection pins.
func TestSolveEqualFinishMatchesReferenceRandom(t *testing.T) {
	r := stats.NewRNG(44)
	decades := func(d float64) float64 { return math.Pow(10, d*r.Float64()) }
	for trial := range 10_000 {
		ws := make([]platform.Worker, 1+r.Intn(6))
		sd, bd := 9*r.Float64(), 9*r.Float64()
		for i := range ws {
			ws[i] = platform.Worker{Speed: decades(sd), Bandwidth: decades(bd)}
		}
		pl, err := platform.New(ws)
		if err != nil {
			t.Fatal(err)
		}
		l := Load{N: math.Pow(10, 9*r.Float64()-3), Alpha: []float64{1.5, 2, 3}[r.Intn(3)]}
		onePort := r.Intn(2) == 0
		var order []int
		if onePort {
			order = r.Perm(pl.P())
		}
		got, err := solveEqualFinish(pl, l, order, onePort)
		want, werr := refSolveEqualFinish(pl, l, order, onePort, chunkForDeadline)
		if err != nil || werr != nil {
			t.Fatalf("trial %d: errors %v / %v", trial, err, werr)
		}
		if !slices.Equal(got.Data, want.Data) || got.Makespan != want.Makespan || !slices.Equal(got.Order, want.Order) {
			t.Fatalf("trial %d: %v %v, the reference gives %v %v", trial, got.Makespan, got.Data, want.Makespan, want.Data)
		}
	}
}

// TestPowAlphaMatchesPow checks the products that replace math.Pow for
// α = 2 and α = 3 on random x over [2⁻⁵³, 2¹⁰²³], overflow included, and
// at 0 and +Inf. Below that range a subnormal power could round twice in
// Pow. chunkForDeadline evaluates the cost at or near a chunk's size, and
// a square or cube is subnormal only for x below 2⁻⁵¹¹ or 2⁻³⁴¹, where
// the power is far below an ulp of the x/bw it is added to; the solves
// themselves are checked against a math.Pow reference in
// TestChunkForDeadlineMatchesBitBisection.
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

// chunkDraw is one random chunk solve: a deadline t, a worker's bandwidth
// and speed over 2^±10, and an offset that lands past t one time in ten.
type chunkDraw struct{ offset, bw, speed, t float64 }

func randomChunkDraws(r *stats.RNG, n int) []chunkDraw {
	ds := make([]chunkDraw, n)
	for i := range ds {
		t := math.Ldexp(1+r.Float64(), r.Intn(31)-10)
		ds[i] = chunkDraw{
			offset: t * 1.1 * r.Float64(),
			bw:     math.Ldexp(1+r.Float64(), r.Intn(21)-10),
			speed:  math.Ldexp(1+r.Float64(), r.Intn(21)-10),
			t:      t,
		}
	}
	return ds
}

// The exact solve returns the bit-bisection reference's float on 10⁵
// random draws for each α of the §2 table.
func TestChunkForDeadlineMatchesBitBisection(t *testing.T) {
	r := stats.NewRNG(19)
	for _, alpha := range []float64{1.5, 2, 3} {
		for _, d := range randomChunkDraws(r, 100_000) {
			got := chunkForDeadline(d.offset, d.bw, d.speed, alpha, d.t)
			if want := refChunkForDeadline(d.offset, d.bw, d.speed, alpha, d.t); got != want {
				t.Fatalf("α=%v %+v: chunkForDeadline = %v, bit bisection gives %v", alpha, d, got, want)
			}
		}
	}
}

// The exact solve evaluates the cost at least four times less often than
// the bisection it replaced (~52 evaluations per solve); a Newton step
// reads the cost and its slope from one evaluation.
func TestChunkForDeadlineEvaluations(t *testing.T) {
	r := stats.NewRNG(23)
	for _, alpha := range []float64{1.5, 2, 3} {
		var solves, exact, bisect int
		for _, d := range randomChunkDraws(r, 10_000) {
			if d.offset >= d.t {
				continue
			}
			budget := d.t - d.offset
			cost := chunkCost(d.bw, d.speed, alpha)
			counted := func(x float64) (float64, float64) { exact++; return cost(x) }
			got := solve.Largest(counted, budget, 0, chunkStart(budget, d.bw, d.speed, alpha))
			if want := chunkForDeadline(d.offset, d.bw, d.speed, alpha, d.t); got != want {
				t.Fatalf("α=%v %+v: the counted solve gives %v, chunkForDeadline %v", alpha, d, got, want)
			}
			bisectChunkForDeadline(d.offset, d.bw, d.speed, alpha, d.t, &bisect)
			solves++
		}
		perExact, perBisect := float64(exact)/float64(solves), float64(bisect)/float64(solves)
		t.Logf("α=%v: %.2f evaluations per exact solve, %.2f per bisection", alpha, perExact, perBisect)
		if perBisect < 4*perExact {
			t.Errorf("α=%v: %.2f evaluations per exact solve, want at most a quarter of the bisection's %.2f", alpha, perExact, perBisect)
		}
	}
}

// Against the bisection it replaced, the solver moves no makespan T by
// more than the outer bisection's stopping width 1e-14·(1+T), and no
// chunk by more than 1e-14 of the load. The old inner bisection stopped
// within 1e-15·(1+X) of each chunk, so a tiny one-port chunk could be
// far off in its own terms; the exact solve corrects those.
func TestSolveEqualFinishNearBisection(t *testing.T) {
	bisect := func(offset, bw, speed, alpha, t float64) float64 {
		return bisectChunkForDeadline(offset, bw, speed, alpha, t, nil)
	}
	worst := 0.0
	for _, np := range equalFinishPlatforms(t) {
		for _, alpha := range []float64{1.5, 2, 3} {
			for _, n := range []float64{3, 1e4} {
				l := Load{N: n, Alpha: alpha}
				for _, onePort := range []bool{false, true} {
					got, err := solveEqualFinish(np.pl, l, nil, onePort)
					want, werr := refSolveEqualFinish(np.pl, l, nil, onePort, bisect)
					if err != nil || werr != nil {
						t.Fatalf("%s α=%v N=%v onePort=%v: errors %v / %v", np.name, alpha, n, onePort, err, werr)
					}
					worst = max(worst, math.Abs(got.Makespan-want.Makespan)/(1+want.Makespan))
					for i := range got.Data {
						worst = max(worst, math.Abs(got.Data[i]-want.Data[i])/n)
					}
				}
			}
		}
	}
	t.Logf("largest move: %.3g of the width", worst/1e-14)
	if worst > 1e-14 {
		t.Errorf("the solver moves a float by %.3g of the width against the bisection, more than 1", worst/1e-14)
	}
}
