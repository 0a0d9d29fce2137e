package platform

import (
	"math"
	"testing"
	"testing/quick"

	"nlfl/internal/stats"
)

func mustNew(t *testing.T, speeds ...float64) *Platform {
	t.Helper()
	p, err := FromSpeeds(speeds)
	if err != nil {
		t.Fatalf("FromSpeeds(%v): %v", speeds, err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name    string
		workers []Worker
		wantErr bool
	}{
		{"empty", nil, true},
		{"ok", []Worker{{Speed: 1, Bandwidth: 1}}, false},
		{"zero speed", []Worker{{Speed: 0, Bandwidth: 1}}, true},
		{"negative speed", []Worker{{Speed: -1, Bandwidth: 1}}, true},
		{"nan speed", []Worker{{Speed: math.NaN(), Bandwidth: 1}}, true},
		{"inf speed", []Worker{{Speed: math.Inf(1), Bandwidth: 1}}, true},
		{"zero bandwidth", []Worker{{Speed: 1, Bandwidth: 0}}, true},
		{"negative bandwidth", []Worker{{Speed: 1, Bandwidth: -2}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.workers)
			if (err != nil) != c.wantErr {
				t.Errorf("New(%v) err = %v, wantErr = %v", c.workers, err, c.wantErr)
			}
		})
	}
}

func TestNewAssignsIDsAndCopies(t *testing.T) {
	in := []Worker{{Speed: 2, Bandwidth: 1}, {Speed: 3, Bandwidth: 1}}
	p, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	in[0].Speed = 99 // must not affect the platform
	if p.Worker(0).Speed != 2 {
		t.Error("New must copy its input")
	}
	if p.Worker(0).ID != 0 || p.Worker(1).ID != 1 {
		t.Error("New must assign sequential IDs")
	}
}

func TestWorkerTimes(t *testing.T) {
	w := Worker{Speed: 2, Bandwidth: 4}
	if got := w.CommTime(8); got != 2 {
		t.Errorf("CommTime = %v, want 2", got)
	}
	if got := w.LinearCompTime(8); got != 4 {
		t.Errorf("LinearCompTime = %v, want 4", got)
	}
	if got := w.PowerCompTime(3, 2); got != 4.5 {
		t.Errorf("PowerCompTime = %v, want 4.5 (3²/2)", got)
	}
	// α=1 must agree with the linear cost.
	if w.PowerCompTime(8, 1) != w.LinearCompTime(8) {
		t.Error("PowerCompTime(·, 1) must equal LinearCompTime")
	}
}

func TestAggregates(t *testing.T) {
	p := mustNew(t, 1, 3, 6)
	if p.P() != 3 {
		t.Errorf("P = %d", p.P())
	}
	if p.TotalSpeed() != 10 {
		t.Errorf("TotalSpeed = %v, want 10", p.TotalSpeed())
	}
	if p.MinSpeed() != 1 || p.MaxSpeed() != 6 {
		t.Errorf("min/max = %v/%v", p.MinSpeed(), p.MaxSpeed())
	}
	xs := p.NormalizedSpeeds()
	want := []float64{0.1, 0.3, 0.6}
	for i := range xs {
		if math.Abs(xs[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
}

func TestWorkersReturnsCopy(t *testing.T) {
	p := mustNew(t, 1, 2)
	ws := p.Workers()
	ws[0].Speed = 42
	if p.Worker(0).Speed != 1 {
		t.Error("Workers must return a copy")
	}
}

func TestHomogeneousConstructor(t *testing.T) {
	p, err := Homogeneous(7, 2.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.P() != 7 || p.TotalSpeed() != 17.5 {
		t.Errorf("unexpected homogeneous platform: %v", p)
	}
	if p.Worker(3).Bandwidth != 3 {
		t.Error("bandwidth not applied")
	}
	if _, err := Homogeneous(0, 1, 1); err == nil {
		t.Error("p=0 should fail")
	}
}

func TestGenerate(t *testing.T) {
	r := stats.NewRNG(1)
	p, err := Generate(50, stats.Uniform{Lo: 1, Hi: 100}, r)
	if err != nil {
		t.Fatal(err)
	}
	if p.P() != 50 {
		t.Fatalf("P = %d", p.P())
	}
	for _, s := range p.Speeds() {
		if s < 1 || s >= 100 {
			t.Errorf("speed %v out of range", s)
		}
	}
	// Determinism: same seed, same platform.
	p2, _ := Generate(50, stats.Uniform{Lo: 1, Hi: 100}, stats.NewRNG(1))
	for i, s := range p.Speeds() {
		if p2.Speeds()[i] != s {
			t.Fatal("Generate is not deterministic for a fixed seed")
		}
	}
}

func TestProfileParsingRoundTrip(t *testing.T) {
	for _, sp := range []SpeedProfile{ProfileHomogeneous, ProfileUniform, ProfileLogNormal, ProfileBimodal} {
		got, err := ParseProfile(sp.String())
		if err != nil || got != sp {
			t.Errorf("ParseProfile(%q) = %v, %v", sp.String(), got, err)
		}
	}
	if _, err := ParseProfile("nope"); err == nil {
		t.Error("unknown profile should fail")
	}
	if SpeedProfile(99).String() == "" {
		t.Error("unknown profile String should still render")
	}
}

func TestProfileDistributions(t *testing.T) {
	r := stats.NewRNG(2)
	if v := ProfileHomogeneous.Distribution(0).Sample(r); v != 1 {
		t.Errorf("homogeneous profile sample = %v, want 1", v)
	}
	d := ProfileBimodal.Distribution(16)
	for i := 0; i < 100; i++ {
		v := d.Sample(r)
		if v != 1 && v != 16 {
			t.Fatalf("bimodal(16) sample = %v", v)
		}
	}
	if ProfileUniform.Distribution(0).String() != "uniform[1,100]" {
		t.Error("uniform profile must be Uniform[1,100] per Figure 4(b)")
	}
	if ProfileLogNormal.Distribution(0).String() != "lognormal(0,1)" {
		t.Error("lognormal profile must be LogNormal(0,1) per Figure 4(c)")
	}
	if SpeedProfile(99).Distribution(0).Sample(r) != 1 {
		t.Error("unknown profile should fall back to constant 1")
	}
}

// Property: normalized speeds are positive and sum to 1 for any valid
// platform.
func TestNormalizedSpeedsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		speeds := raw[:0]
		for _, s := range raw {
			if s > 1e-6 && s < 1e6 && !math.IsNaN(s) {
				speeds = append(speeds, s)
			}
		}
		if len(speeds) == 0 {
			return true
		}
		p, err := FromSpeeds(speeds)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, x := range p.NormalizedSpeeds() {
			if x <= 0 || x > 1 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
