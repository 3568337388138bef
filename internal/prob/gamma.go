package prob

import "math"

// The regularized upper incomplete gamma function, after the classic
// series / continued-fraction split (Numerical Recipes §6.2). It powers the
// O(1) Poisson CDF used by PDUApriori's λ-inversion.

const (
	gammaEps     = 1e-15
	gammaItMax   = 500
	gammaFPMin   = 1e-300
	gammaCFTweak = 1e-30
)

// RegUpperGamma returns Q(a, x) = Γ(a,x)/Γ(a), the regularized upper
// incomplete gamma function, for a > 0, x ≥ 0.
func RegUpperGamma(a, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(x) || a <= 0 || x < 0:
		return math.NaN()
	case x == 0:
		return 1
	case x < a+1:
		return 1 - gammaSeries(a, x)
	default:
		return gammaContinuedFraction(a, x)
	}
}

// gammaSeries evaluates P(a,x) by its power series, valid for x < a+1.
func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < gammaItMax; i++ {
		ap++
		del = float64(del * (x / ap))
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	v := sum * math.Exp(-x+float64(a*math.Log(x))-lg)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// gammaContinuedFraction evaluates Q(a,x) by its continued fraction, valid
// for x ≥ a+1 (modified Lentz method).
func gammaContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / gammaCFTweak
	d := 1 / b
	h := d
	for i := 1; i <= gammaItMax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = float64(an*d) + b
		if math.Abs(d) < gammaFPMin {
			d = gammaFPMin
		}
		c = b + an/c
		if math.Abs(c) < gammaFPMin {
			c = gammaFPMin
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	v := math.Exp(-x+float64(a*math.Log(x))-lg) * h
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
