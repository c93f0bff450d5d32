"""Heavy-tail latency samplers against closed-form quantiles.

The scenario factory leans on two tail families — log-normal and Pareto —
whose p99/p999 have exact closed forms.  The quantile oracles below are
pinned to those values (no scipy involved), and seeded sampling must
converge to the same tails.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.simulation.latency import LogNormalLatency, ParetoLatency
from repro.simulation.rng import SeededRng

# Standard normal quantiles (reference values, Abramowitz & Stegun grade).
Z_99 = 2.3263478740408408
Z_999 = 3.0902323061678132


def _norm_ppf(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation), to
    ~1e-9 over (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"quantile probability must be in (0, 1), got {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low or p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
        tail = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
        return tail if p < p_low else -tail
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def lognormal_quantile(model: LogNormalLatency, p: float) -> float:
    """Closed form: ``median * exp(sigma * z_p)``."""
    return model.median_ms * math.exp(model.sigma * _norm_ppf(p))


def pareto_quantile(model: ParetoLatency, p: float) -> float:
    """Closed form: ``x_m * (1 - p) ** (-1/alpha)``."""
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"quantile probability must be in (0, 1), got {p}")
    return model.scale_ms * (1.0 - p) ** (-1.0 / model.alpha)


class TestNormPpf:
    def test_pinned_reference_quantiles(self):
        assert _norm_ppf(0.5) == pytest.approx(0.0, abs=1e-9)
        assert _norm_ppf(0.99) == pytest.approx(Z_99, abs=1e-6)
        assert _norm_ppf(0.999) == pytest.approx(Z_999, abs=1e-6)
        assert _norm_ppf(0.01) == pytest.approx(-Z_99, abs=1e-6)

    def test_symmetry(self):
        for p in (0.001, 0.025, 0.3, 0.77, 0.9995):
            assert _norm_ppf(p) == pytest.approx(-_norm_ppf(1.0 - p), abs=1e-8)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain_enforced(self, p):
        with pytest.raises(ConfigurationError):
            _norm_ppf(p)


class TestParetoQuantiles:
    def test_p99_closed_form(self):
        # x_m * (1 - p) ** (-1/alpha): 10 * 0.01^(-2/3) = 10 * 100^(2/3)
        model = ParetoLatency(10.0, alpha=1.5)
        assert pareto_quantile(model, 0.99) == pytest.approx(10.0 * 100.0 ** (2.0 / 3.0))
        assert pareto_quantile(model, 0.99) == pytest.approx(215.443469, rel=1e-8)

    def test_p999_closed_form(self):
        # 10 * 0.001^(-2/3) = 10 * 1000^(2/3) = exactly 1000.
        model = ParetoLatency(10.0, alpha=1.5)
        assert pareto_quantile(model, 0.999) == pytest.approx(1000.0, rel=1e-12)

    def test_median_and_mean(self):
        model = ParetoLatency(10.0, alpha=2.0)
        assert pareto_quantile(model, 0.5) == pytest.approx(10.0 * math.sqrt(2.0))

    def test_from_median_round_trips(self):
        model = ParetoLatency.from_median(12.0, alpha=1.7)
        assert pareto_quantile(model, 0.5) == pytest.approx(12.0, rel=1e-12)

    def test_sampling_matches_closed_form_tail(self):
        model = ParetoLatency(5.0, alpha=1.8)
        rng = SeededRng(99)
        samples = sorted(model.sample(rng) for _ in range(200_000))
        p99_hat = samples[int(0.99 * len(samples))]
        assert p99_hat == pytest.approx(pareto_quantile(model, 0.99), rel=0.05)
        assert min(samples) >= 5.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ParetoLatency(0.0, alpha=1.5)
        with pytest.raises(ConfigurationError):
            ParetoLatency(10.0, alpha=1.0)
        with pytest.raises(ConfigurationError):
            ParetoLatency.from_median(0.0)
        with pytest.raises(ConfigurationError):
            ParetoLatency.from_median(10.0, alpha=0.9)
        with pytest.raises(ConfigurationError):
            pareto_quantile(ParetoLatency(10.0), 1.0)


class TestLogNormalQuantiles:
    def test_p99_closed_form(self):
        model = LogNormalLatency(20.0, sigma=0.5)
        assert lognormal_quantile(model, 0.99) == pytest.approx(
            20.0 * math.exp(0.5 * Z_99), rel=1e-6
        )

    def test_p999_closed_form(self):
        model = LogNormalLatency(20.0, sigma=0.5)
        assert lognormal_quantile(model, 0.999) == pytest.approx(
            20.0 * math.exp(0.5 * Z_999), rel=1e-6
        )

    def test_median_is_parameter(self):
        assert lognormal_quantile(LogNormalLatency(35.0, 0.4), 0.5) == pytest.approx(35.0)

    def test_degenerate_sigma_zero(self):
        model = LogNormalLatency(15.0, sigma=0.0)
        assert lognormal_quantile(model, 0.001) == 15.0
        assert lognormal_quantile(model, 0.999) == 15.0
        with pytest.raises(ConfigurationError):
            lognormal_quantile(model, 1.0)

    def test_sampling_matches_closed_form_tail(self):
        model = LogNormalLatency(10.0, sigma=0.6)
        rng = SeededRng(7)
        samples = sorted(model.sample(rng) for _ in range(200_000))
        p99_hat = samples[int(0.99 * len(samples))]
        assert p99_hat == pytest.approx(lognormal_quantile(model, 0.99), rel=0.05)

    def test_pareto_tail_dominates_lognormal(self):
        # Same median, but the Pareto's p999/median ratio must be far
        # larger — the whole reason scenarios offer both families.
        lognormal = LogNormalLatency(10.0, sigma=0.3)
        pareto = ParetoLatency.from_median(10.0, alpha=1.2)
        assert pareto_quantile(pareto, 0.999) > 10 * lognormal_quantile(lognormal, 0.999)
