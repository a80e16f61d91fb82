package dist

import (
	"strings"
	"testing"
)

// FuzzDistParse: whatever text reaches Parse — a WTQL WITH value, a
// scenario file's field, a catalog entry — is refused with an error or
// becomes a Dist whose String() parses back to the same String(), the
// promise Parse's comment makes and cache keys rely on (a key holds the
// String() form). Seeded with every spec in README, the tests and
// bench/workloads.go, good and bad, and with nesting at the limit.
func FuzzDistParse(f *testing.F) {
	for _, s := range []string{
		// README
		"weibull(shape=0.7, scale=8760)", "weibull(shape=0.7, scale=12000)",
		"lognormal(mu=2.03891, sigma=0.944456)", "lognormal(mu=2, sigma=0.8)",
		"lognormal(mean=12, cv=1.2)", "exp(mean=500)", "exp(rate=0.002)", "det(12)",
		"gamma(shape=2, scale=5)", "pareto(xm=1, alpha=2.5)", "empirical(1.5, 2, 8, 40)",
		"mix(0.8*det(2), 0.2*det(24))", "mix(0.8*lognormal(mean=4, cv=1), 0.2*det(48))",
		// bench/workloads.go
		"exp(mean=50000)",
		// the tests
		"weibull(0.7, 8760)", "WEIBULL( k = 0.7 , lambda = 8760 )", "weibull(shape=0.7, scale=600)",
		"weibull(shape=0.7, scale=250000)", "lognormal(2, 0.8)", "lognormal(mean=16, cv=1.2)",
		"exponential(500)", "exp(mean=2000)", "exp(mean=500000)", "det(1)", "det(2)", "det(4)",
		"deterministic(value=12)", "const(0)", "pareto(min=1, alpha=2.5)", "empirical(1, 2, 3.5)",
		"mix(0.8*exp(mean=2), 0.2*lognormal(mu=3, sigma=0.5))",
		"mix(0.8*exp(mean=2), 0.2*weibull(shape=0.7, scale=100))", "mix(0.9*det(2), 0.1*det(24))",
		"mix(1*mix(2*det(1), 1*det(4)), 3*exp(mean=9))",
		"", "weibull", "weibull(", "weibull)", "weibull()", "weibull(shape=0)", "weibull(shape=0.7)",
		"weibull(shape=0.7, scale=0)", "weibull(shape=0.7, scale=1) trailing", "weibull(0, 1)",
		"frechet(1, 2)", "exp(mean=abc)", "exp(mean=)", "mix()", "mix(exp(mean=1))",
		"mix(0.5*exp(mean=1), 0.5)", "empirical()", "empirical(a=1)", "det(0.5*exp(mean=1))",
		"lognormal(mean=12)",
		// edges
		"exp(rate=1e-310)", "exp(mean=1e-310)", "lognormal(mean=1, cv=1e-200)",
		"mix(1e308*det(1), 1e308*det(2))", "mix(1e-300*det(1), 1e300*det(2))",
		"mix(2.611756*det(0), 3.148048*det(1), 8.997501*det(2), 1.001994*det(3), 7.698891*det(4), 0.965343*det(5), 0.759859*det(6), 5.783513*det(7))",
		nestedSpec(maxNesting), nestedSpec(maxNesting + 1),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := Parse(s)
		if err != nil {
			return
		}
		printed := d.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) prints %q, which does not parse: %v", s, printed, err)
		}
		if again := back.String(); again != printed {
			t.Fatalf("Parse(%q) prints %q, which parses back to %q", s, printed, again)
		}
	})
}

// nestedSpec is a spec depth levels deep: depth-1 mixtures around an
// exponential.
func nestedSpec(depth int) string {
	return strings.Repeat("mix(1*", depth-1) + "exp(mean=500)" + strings.Repeat(")", depth-1)
}
