package queueing

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		q    MM1
		ok   bool
		name string
	}{
		{MM1{Mu: 10, Lambda: 5}, true, "stable"},
		{MM1{Mu: 10, Lambda: 0}, true, "idle"},
		{MM1{Mu: 10, Lambda: 10}, false, "critical"},
		{MM1{Mu: 10, Lambda: 11}, false, "overloaded"},
		{MM1{Mu: 0, Lambda: 0}, false, "zero rate"},
		{MM1{Mu: -1, Lambda: 0}, false, "negative rate"},
		{MM1{Mu: 10, Lambda: -1}, false, "negative load"},
	}
	for _, c := range cases {
		err := c.q.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, ok=%v", c.name, err, c.ok)
		}
	}
	if err := (MM1{Mu: 1, Lambda: 1}).Validate(); !errors.Is(err, ErrUnstable) {
		t.Errorf("critical load should wrap ErrUnstable, got %v", err)
	}
}

func TestClosedForms(t *testing.T) {
	q := MM1{Mu: 10, Lambda: 8} // rho = 0.8
	if got := q.Utilization(); got != 0.8 {
		t.Errorf("rho = %v", got)
	}
	if got := q.ResponseTime(); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("T = %v, want 0.5", got)
	}
	if got := q.WaitingTime(); math.Abs(got-0.4) > 1e-15 {
		t.Errorf("W = %v, want 0.4", got)
	}
	if got := q.JobsInSystem(); math.Abs(got-4) > 1e-12 {
		t.Errorf("L = %v, want 4", got)
	}
	if got := q.JobsInQueue(); math.Abs(got-3.2) > 1e-12 {
		t.Errorf("Lq = %v, want 3.2", got)
	}
}

func TestUnstableInfinities(t *testing.T) {
	q := MM1{Mu: 5, Lambda: 5}
	for name, v := range map[string]float64{
		"T":  q.ResponseTime(),
		"W":  q.WaitingTime(),
		"L":  q.JobsInSystem(),
		"Lq": q.JobsInQueue(),
	} {
		if !math.IsInf(v, 1) {
			t.Errorf("%s of critical queue = %v, want +Inf", name, v)
		}
	}
}

func TestProbNGeometric(t *testing.T) {
	q := MM1{Mu: 2, Lambda: 1} // rho = 0.5
	var sum float64
	for n := 0; n < 60; n++ {
		p := q.ProbN(n)
		if want := 0.5 * math.Pow(0.5, float64(n)); math.Abs(p-want) > 1e-15 {
			t.Fatalf("P(%d) = %v, want %v", n, p, want)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if q.ProbN(-1) != 0 {
		t.Error("P(-1) should be 0")
	}
}

func TestQuantiles(t *testing.T) {
	q := MM1{Mu: 3, Lambda: 1} // sojourn ~ Exp(2)
	if got := q.ResponseTimeQuantile(0.5); math.Abs(got-math.Ln2/2) > 1e-15 {
		t.Errorf("median = %v, want ln2/2", got)
	}
	if q.ResponseTimeQuantile(0) != 0 {
		t.Error("0-quantile should be 0")
	}
	if !math.IsInf(q.ResponseTimeQuantile(1), 1) {
		t.Error("1-quantile should be +Inf")
	}
}

func TestLittleLawProperty(t *testing.T) {
	f := func(muRaw, rhoRaw float64) bool {
		mu := 0.1 + math.Mod(math.Abs(muRaw), 100)
		rho := math.Mod(math.Abs(rhoRaw), 0.99)
		if math.IsNaN(mu) || math.IsNaN(rho) {
			return true
		}
		q := MM1{Mu: mu, Lambda: rho * mu}
		return q.LittleLawResidual() < 1e-9*(1+q.JobsInSystem())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResponseTimeMonotoneInLoad(t *testing.T) {
	prev := 0.0
	for _, lambda := range []float64{0, 1, 3, 5, 7, 9, 9.9} {
		cur := MM1{Mu: 10, Lambda: lambda}.ResponseTime()
		if cur <= prev {
			t.Fatalf("response time not increasing at lambda=%v", lambda)
		}
		prev = cur
	}
}

func TestSystemResponseTime(t *testing.T) {
	mus := []float64{10, 20}
	lambdas := []float64{5, 10}
	got, err := SystemResponseTime(mus, lambdas)
	if err != nil {
		t.Fatal(err)
	}
	// (5*(1/5) + 10*(1/10)) / 15 = 2/15
	if want := 2.0 / 15.0; math.Abs(got-want) > 1e-15 {
		t.Errorf("D = %v, want %v", got, want)
	}
}

func TestSystemResponseTimeEdge(t *testing.T) {
	if _, err := SystemResponseTime([]float64{1}, []float64{0, 0}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := SystemResponseTime([]float64{1}, []float64{-0.5}); err == nil {
		t.Error("negative load should fail")
	}
	if got, err := SystemResponseTime([]float64{1, 2}, []float64{0, 0}); err != nil || got != 0 {
		t.Errorf("zero-load system: %v, %v", got, err)
	}
	if got, err := SystemResponseTime([]float64{1}, []float64{1}); err != nil || !math.IsInf(got, 1) {
		t.Errorf("saturated station should give +Inf: %v, %v", got, err)
	}
	// A station with zero mu is fine as long as it carries no load.
	if _, err := SystemResponseTime([]float64{0, 5}, []float64{0, 1}); err != nil {
		t.Errorf("unloaded zero-rate station should be ignored: %v", err)
	}
	if _, err := SystemResponseTime([]float64{0}, []float64{1}); err == nil {
		t.Error("loaded zero-rate station must fail")
	}
}

func TestPoolingBeatsSplitting(t *testing.T) {
	// Sanity of the model: one fast server beats two half-speed servers at
	// equal total load — the structural reason slow computers get no jobs
	// in the water-filling solutions.
	fast, _ := SystemResponseTime([]float64{20}, []float64{10})
	split, _ := SystemResponseTime([]float64{10, 10}, []float64{5, 5})
	if fast >= split {
		t.Errorf("pooled %v should beat split %v", fast, split)
	}
}
