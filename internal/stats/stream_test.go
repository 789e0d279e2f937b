package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestWelfordMatchesBatch: the streaming accumulator must agree with the
// batch functions on the same data, for sizes spanning the degenerate
// cases (empty, single) through a large sample.
func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 10, 1000} {
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64()*3 + 10
			w.Add(xs[i])
		}
		if w.N() != n {
			t.Fatalf("n=%d: N() = %d", n, w.N())
		}
		checks := []struct {
			name      string
			got, want float64
		}{
			{"mean", w.Mean(), Mean(xs)},
			{"std", w.Std(), StdDev(xs)},
			{"min", w.Min(), Min(xs)},
			{"max", w.Max(), Max(xs)},
			{"ci95", w.CI95(), CI95(xs)},
		}
		for _, c := range checks {
			if math.IsNaN(c.got) {
				t.Fatalf("n=%d: %s is NaN", n, c.name)
			}
			if math.Abs(c.got-c.want) > 1e-9*(1+math.Abs(c.want)) {
				t.Errorf("n=%d: %s = %v, batch %v", n, c.name, c.got, c.want)
			}
		}
	}
}

// TestQuantileBatch pins the batch quantile's interpolation and its
// degenerate-input behaviour.
func TestQuantileBatch(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{42}, 0, 42},
		{[]float64{42}, 1, 42},
		{[]float64{1, 3}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3}, -0.5, 1}, // p clamps to [0,1]
		{[]float64{1, 2, 3}, 1.5, 3},
		{[]float64{1, 2, 3}, math.NaN(), 1},
	}
	for _, c := range cases {
		if got := Quantile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 {
		t.Fatal("Quantile sorted the caller's slice")
	}
}

// TestP2SmallSamplesExact: for five or fewer observations the estimator
// stores the data and must agree with the batch quantile exactly.
func TestP2SmallSamplesExact(t *testing.T) {
	data := []float64{9, 2, 7, 4, 5}
	for _, p := range []float64{0, 0.25, 0.5, 0.95, 1} {
		e := NewP2Quantile(p)
		if e.Value() != 0 {
			t.Fatalf("empty estimator Value = %v", e.Value())
		}
		for i, x := range data {
			e.Add(x)
			want := Quantile(data[:i+1], p)
			if got := e.Value(); math.Abs(got-want) > 1e-12 {
				t.Errorf("p=%v after %d obs: got %v, want %v", p, i+1, got, want)
			}
		}
	}
}

// TestP2ConvergesToBatchQuantile: on large iid samples the P² estimate
// must land near the exact batch quantile. Tolerances are loose — P² is
// an approximation — but tight enough to catch a broken marker update.
func TestP2ConvergesToBatchQuantile(t *testing.T) {
	dists := []struct {
		name string
		draw func(*rand.Rand) float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 100 }},
		{"normal", func(r *rand.Rand) float64 { return r.NormFloat64()*5 + 50 }},
		{"exponential", func(r *rand.Rand) float64 { return r.ExpFloat64() * 10 }},
	}
	for _, d := range dists {
		for _, p := range []float64{0.5, 0.95, 0.99} {
			rng := rand.New(rand.NewSource(int64(p * 1000)))
			e := NewP2Quantile(p)
			xs := make([]float64, 20000)
			for i := range xs {
				xs[i] = d.draw(rng)
				e.Add(xs[i])
			}
			want := Quantile(xs, p)
			got := e.Value()
			// Tolerance: 5% of the sample's interquartile-ish scale.
			scale := Quantile(xs, 0.99) - Quantile(xs, 0.01)
			if math.Abs(got-want) > 0.05*scale {
				t.Errorf("%s p=%v: P² %v vs batch %v (scale %v)", d.name, p, got, want, scale)
			}
		}
	}
}

// TestP2SortedInput: monotone input is the classic P² stress case (all
// mass keeps entering the last cell); the estimate must stay within the
// observed range and near the true quantile.
func TestP2SortedInput(t *testing.T) {
	e := NewP2Quantile(0.95)
	n := 10000
	for i := 0; i < n; i++ {
		e.Add(float64(i))
	}
	got := e.Value()
	if got < 0 || got > float64(n-1) {
		t.Fatalf("estimate %v escaped the observed range", got)
	}
	if math.Abs(got-0.95*float64(n-1)) > 0.02*float64(n) {
		t.Errorf("sorted input: P95 = %v, want ≈ %v", got, 0.95*float64(n-1))
	}
}

// TestP2ExtremesAreExact: p=0 and p=1 track the running min and max
// once the marker phase begins.
func TestP2ExtremesAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lo, hi := NewP2Quantile(0), NewP2Quantile(1)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		lo.Add(xs[i])
		hi.Add(xs[i])
	}
	sort.Float64s(xs)
	if lo.Value() != xs[0] {
		t.Errorf("p=0: %v, want min %v", lo.Value(), xs[0])
	}
	if hi.Value() != xs[len(xs)-1] {
		t.Errorf("p=1: %v, want max %v", hi.Value(), xs[len(xs)-1])
	}
}

// TestStreamingDeterminism: identical input order produces bitwise-
// identical estimator state — the property fleet aggregation's
// byte-identical JSON contract rests on.
func TestStreamingDeterminism(t *testing.T) {
	build := func() (Welford, P2Quantile) {
		rng := rand.New(rand.NewSource(11))
		var w Welford
		q := NewP2Quantile(0.95)
		for i := 0; i < 5000; i++ {
			x := rng.ExpFloat64()
			w.Add(x)
			q.Add(x)
		}
		return w, q
	}
	w1, q1 := build()
	w2, q2 := build()
	if w1 != w2 {
		t.Fatal("Welford state diverged across identical replays")
	}
	if q1 != q2 {
		t.Fatal("P² state diverged across identical replays")
	}
}
