package sim

import (
	"math"
	"testing"
)

func TestRNGReproducible(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDeriveIndependentOfParentConsumption(t *testing.T) {
	a := NewRNG(5)
	b := NewRNG(5)
	for i := 0; i < 37; i++ {
		a.Float64() // consume some of a only
	}
	ca, cb := a.Derive("child"), b.Derive("child")
	for i := 0; i < 50; i++ {
		if ca.Float64() != cb.Float64() {
			t.Fatal("derived streams depend on parent consumption")
		}
	}
}

func TestDeriveDistinctNames(t *testing.T) {
	g := NewRNG(5)
	a, b := g.Derive("alpha"), g.Derive("beta")
	same := true
	for i := 0; i < 20; i++ {
		if a.Float64() != b.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Error("differently named streams are identical")
	}
}

func TestUniformBounds(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("Uniform out of bounds: %v", v)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 100; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBetaMoments(t *testing.T) {
	g := NewRNG(3)
	const n = 20000
	a, b := 2.0, 5.0
	sum := 0.0
	for i := 0; i < n; i++ {
		v := g.Beta(a, b)
		if v < 0 || v > 1 {
			t.Fatalf("Beta out of [0,1]: %v", v)
		}
		sum += v
	}
	mean := sum / n
	want := a / (a + b)
	if math.Abs(mean-want) > 0.01 {
		t.Errorf("Beta mean = %.4f, want ~%.4f", mean, want)
	}
}

func TestGammaMean(t *testing.T) {
	g := NewRNG(4)
	const n = 20000
	shape := 3.5
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Gamma(shape)
	}
	mean := sum / n
	if math.Abs(mean-shape) > 0.1 {
		t.Errorf("Gamma mean = %.3f, want ~%.3f", mean, shape)
	}
}

func TestGammaSmallShape(t *testing.T) {
	g := NewRNG(4)
	const n = 20000
	shape := 0.5
	sum := 0.0
	for i := 0; i < n; i++ {
		v := g.Gamma(shape)
		if v < 0 {
			t.Fatalf("negative gamma sample: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-shape) > 0.05 {
		t.Errorf("Gamma(0.5) mean = %.3f, want ~0.5", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	g := NewRNG(5)
	for _, mean := range []float64{0.5, 4, 50, 800} {
		const n = 5000
		sum := 0
		for i := 0; i < n; i++ {
			sum += g.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.05*mean+0.2 {
			t.Errorf("Poisson(%v) mean = %.3f", mean, got)
		}
	}
}

func TestPoissonNonPositive(t *testing.T) {
	g := NewRNG(5)
	if g.Poisson(0) != 0 || g.Poisson(-3) != 0 {
		t.Error("Poisson of non-positive mean should be 0")
	}
}

func TestExpNonNegative(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if g.Exp(2.5) < 0 {
			t.Fatal("negative exponential sample")
		}
	}
	if g.Exp(-1) != 0 {
		t.Error("Exp of negative mean should be 0")
	}
}

func TestRNGAccessors(t *testing.T) {
	g := NewRNG(42)
	if g.Seed() != 42 {
		t.Errorf("Seed = %d", g.Seed())
	}
	if v := g.Intn(10); v < 0 || v >= 10 {
		t.Errorf("Intn out of range: %d", v)
	}
	if g.Int63() < 0 {
		t.Error("Int63 negative")
	}
	p := g.Perm(5)
	seen := map[int]bool{}
	for _, v := range p {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("Perm = %v", p)
	}
	vals := []int{1, 2, 3, 4, 5}
	g.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	sum := 0
	for _, v := range vals {
		sum += v
	}
	if sum != 15 {
		t.Error("Shuffle lost elements")
	}
	if g.Pick(0) != -1 || g.Pick(-1) != -1 {
		t.Error("Pick of empty should be -1")
	}
	if v := g.Pick(3); v < 0 || v >= 3 {
		t.Errorf("Pick = %d", v)
	}
}

func TestBetaInvalidParams(t *testing.T) {
	g := NewRNG(1)
	if g.Beta(0, 1) != 0.5 || g.Beta(1, -1) != 0.5 {
		t.Error("invalid Beta params should return 0.5")
	}
	if g.Gamma(-1) != 0 {
		t.Error("Gamma of non-positive shape should be 0")
	}
}
