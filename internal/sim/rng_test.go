package sim

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestRNGForkStability(t *testing.T) {
	// Forks with the same label from same-state parents must agree, and
	// different labels must diverge.
	p1, p2 := NewRNG(7), NewRNG(7)
	a, b := p1.Fork("mac"), p2.Fork("mac")
	if a.Uint64() != b.Uint64() {
		t.Fatal("same-label forks disagree")
	}
	c := NewRNG(7).Fork("phy")
	d := NewRNG(7).Fork("mac")
	if c.Uint64() == d.Uint64() {
		t.Fatal("different-label forks agree")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(9)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("Intn badly skewed: value %d seen %d/10000 times", v, c)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64(2.0)
		if v < 0 {
			t.Fatalf("exponential sample negative: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-2.0) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~2.0", mean)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.1 {
		t.Fatalf("normal stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestRNGRange(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 1000; i++ {
		v := r.Range(5, 8)
		if v < 5 || v >= 8 {
			t.Fatalf("Range out of [5,8): %v", v)
		}
	}
	d := r.Duration(1, 2)
	if d < 1 || d >= 2 {
		t.Fatalf("Duration out of [1,2): %v", d)
	}
}
