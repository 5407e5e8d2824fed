"""Pinned outputs and work counts of the batched 1-D checkers.

`check_interval_mvp` evaluates f' at the quadrature nodes of a block of
trials in one array pass, and `find_abscissas`/`sweep_lambda` bisect every
bracket in lockstep.  Neither may change a bit of what the per-trial and
per-bracket loops returned: (a) pins verdicts, sweep rows and abscissas as
SHA-256 digests of their float.hex values, with readable spot values;
(b) counts the passes and checks that memory stays bounded in the trial
count.  Regenerate (a) only for an intended change of these outputs, with
`PYTHONPATH=src python tests/test_batched_1d.py`, and say so in CHANGES.md.
"""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from mvlab import calculus, expr, mvp, mvroot
from mvlab.mvroot import Interval


def _hexed(x):
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _hexed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hexed(v) for v in x]
    return x


def _digest(x) -> str:
    return hashlib.sha256(json.dumps(_hexed(x), sort_keys=True).encode()).hexdigest()


# (expression, lambda, trials, domain, seed); 600 trials span three node blocks
VERDICT_CASES = [
    ("x^3", 0.5, 64, (-2.0, 2.0), 11),
    ("sqrt(x)", 0.5, 64, (0.0, 2.0), 12),
    ("exp(x)", 0.5, 600, (-1.0, 2.0), 13),
]
# (expression, x0, h_min, h_max, steps)
SWEEP_CASES = [
    ("log(x)", 0.05, 1e-3, 0.05, 12),  # the last interval reaches log(0)
    ("abs(x)+x^3", 0.0, 1e-3, 0.1, 8),  # the grid hits abs' kink at 0 on every row
    ("x^3", 0.0, 1e-3, 0.1, 12),
]


def _verdict(source, lam, trials, domain, seed):
    v = mvp.check_interval_mvp(expr.parse(source), lam, trials, Interval(*domain), seed)
    return [v.to_json_dict(), v.trial_residuals]


def _sweep(source, x0, h_min, h_max, steps):
    s = mvroot.sweep_lambda(expr.parse(source), x0, h_min, h_max, steps)
    rows = [[r.h, r.c, r.lam, r.abs_dev, r.status] for r in s.rows]
    return [rows, s.fitted_order, s.fit_points]


def _abscissas(source, a, b, grid=1024):
    res = mvroot.find_abscissas(expr.parse(source), Interval(a, b), grid=grid)
    return [res.average_slope, res.abscissas, res.lambdas, res.degenerate]


VERDICT_DIGESTS = {
    "x^3": "82003ee6e7c32e1d71bf8a5cad163efced47ad5d37c1183a517a4e40b6942b7e",
    "sqrt(x)": "476e0e7ced616a1b49766dd240c7d221c2a5815c42dad94b0d61c61cdba078cb",
    "exp(x)": "ef949b876a330ac252b20aa1a0fff607861ec2e415f1fa94a827abb842ee00bc",
}
WORST_RESIDUALS = {
    "x^3": "0x1.48fd2efa4fff6p-1",
    "sqrt(x)": "0x1.9f1b6b8cd0bd9p-5",
    "exp(x)": "0x1.959e37cf035e2p-3",
}
SWEEP_DIGESTS = {
    "log(x)": "9f6db20d55c6ddb54afcae5571fa71399d0653e1c3307d6bfbac32caacdd0904",
    "abs(x)+x^3": "3083b238597ccbccb046a91f7b0fce5e5e29bbba0f8b61f1d5b4b1e012335bfb",
    "x^3": "ef64987b2d05dc27800eda67e2c32c2d5600d8773a95d7ea51f79afba2a6c51c",
}
SWEEP_STATUSES = {
    "log(x)": "ok " * 11 + "failed",
    "abs(x)+x^3": " ".join(["failed"] * 8),
    "x^3": " ".join(["ok"] * 12),
}
# cos(c) = sin(20)/20 has six solutions in (0, 20)
SINE_DIGEST = "0756447f0201347aa297163e4615cca29d8940db5501ad060167a3dcda60e237"
SINE_ABSCISSAS = [
    "0x1.866f211360d80p+0", "0x1.3083ecff6a8a0p+2", "0x1.f3bb7d891b0a0p+2",
    "0x1.6151d121d6af0p+3", "0x1.c2ed9966aeef0p+3", "0x1.1530d5e1fc0c8p+4",
]
# 707 brackets, more than one lockstep group of them
MANY_ROOTS_DIGEST = "f1d3462a04911bdf675955bad356ad277acb75f1a2d32ea7cacef82fdccb2065"


class TestPinnedOutputs:
    @pytest.mark.parametrize("case", VERDICT_CASES, ids=[c[0] for c in VERDICT_CASES])
    def test_interval_verdict(self, case):
        out = _verdict(*case)
        assert out[0]["worst_residual"].hex() == WORST_RESIDUALS[case[0]]
        assert _digest(out) == VERDICT_DIGESTS[case[0]]

    @pytest.mark.parametrize("case", SWEEP_CASES, ids=[c[0] for c in SWEEP_CASES])
    def test_sweep_rows(self, case):
        out = _sweep(*case)
        assert " ".join(r[-1] for r in out[0]) == SWEEP_STATUSES[case[0]]
        assert _digest(out) == SWEEP_DIGESTS[case[0]]

    def test_sine_abscissas(self):
        out = _abscissas("sin(x)", 0.0, 20.0)
        assert [c.hex() for c in out[1]] == SINE_ABSCISSAS
        assert _digest(out) == SINE_DIGEST

    def test_many_brackets(self):
        out = _abscissas("sin(37*x)", 0.0, 60.0, grid=8192)
        assert len(out[1]) == 707
        assert _digest(out) == MANY_ROOTS_DIGEST


class TestErrorsMatchTheScalarLoops:
    @pytest.mark.parametrize("seed,message", [
        (0, "sqrt of a non-positive argument"), (3, "log of a non-positive argument"),
    ])
    def test_interval_check_raises_the_first_failing_trials_error(self, seed, message):
        # one pass over all trials meets log's fault first; the per-trial loop
        # raised the fault of the first trial that has one
        f = expr.parse("log(x) + sqrt(2 - x)")
        with pytest.raises(expr.DomainError, match=message):
            mvp.check_interval_mvp(f, 0.5, 20, Interval(-1.0, 3.0), seed)

    def test_undefined_node_off_the_bisection_path(self):
        # the one bracket is [-2^-10, 3*2^-10]; its lower half's midpoint is
        # abs' kink at 0, which the one-bracket loop never evaluates
        a = -(2.0**-10) - 511 * 2.0**-8
        res = mvroot.find_abscissas(expr.parse("abs(x) + 512*x^2"), Interval(a, a + 4.0))
        assert [c.hex() for c in res.abscissas] == ["0x1.0030000000000p-9"]

    def test_failing_bisection_fails_only_its_interval(self):
        # on [-h, h] with 1023 cells the middle bracket's midpoint is exactly 0
        f = expr.parse("abs(x) + x^3")
        bad, good = Interval(-1023 / 1024, 1023 / 1024), Interval(0.5, 1.5)
        with pytest.raises(expr.DomainError, match="abs is not differentiable at 0"):
            mvroot.find_abscissas(f, bad, grid=1023)
        out = mvroot._abscissas(f, [bad, good], 1023, 1e-12)
        assert isinstance(out[0], expr.DomainError)
        assert [c.hex() for c in out[1].abscissas] == ["0x1.0a74080e737aep+0"]
        assert out[1] == mvroot.find_abscissas(f, good, grid=1023)


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWorkCounts:
    def test_interval_check_is_one_pass_with_a_cached_rule(self, monkeypatch):
        f = expr.parse("exp(x) - x^2")
        mvp.check_interval_mvp(f, 0.5, 3, Interval(-1.0, 1.0), 1)  # the rule is cached now
        passes = _count_calls(monkeypatch, calculus, "first_derivative_many")
        rules = _count_calls(monkeypatch, np.polynomial.legendre, "leggauss")
        v = mvp.check_interval_mvp(f, 0.25, 50, Interval(-1.0, 1.0), 2)
        assert v.trials == 50
        assert len(passes) == 1 and np.shape(passes[0][1]) == (50 * 128,)
        assert rules == []

    def test_sweep_makes_no_scalar_jet_pass(self, monkeypatch):
        scalar = _count_calls(monkeypatch, calculus, "derivatives_1d")
        sweep = mvroot.sweep_lambda(expr.parse("exp(x)"), 0.3, 1e-3, 0.1, 20)
        assert [r.status for r in sweep.rows] == ["ok"] * 20
        assert scalar == []

    def test_interval_check_memory_is_bounded_in_trials(self):
        f = expr.parse("exp(x)")
        mvp.check_interval_mvp(f, 0.5, 10, Interval(-1.0, 1.0), 3)
        peaks = []
        for trials in (256, 10_000):
            tracemalloc.start()
            try:
                v = mvp.check_interval_mvp(f, 0.5, trials, Interval(-1.0, 1.0), 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert v.trials == trials and not v.holds
        assert peaks[1] - peaks[0] <= 1 << 20, peaks


if __name__ == "__main__":
    for case in VERDICT_CASES:
        out = _verdict(*case)
        print(repr(case[0]), out[0]["worst_residual"].hex(), _digest(out))
    for case in SWEEP_CASES:
        out = _sweep(*case)
        print(repr(case[0]), repr(" ".join(r[-1] for r in out[0])), _digest(out))
    out = _abscissas("sin(x)", 0.0, 20.0)
    print("sine", _digest(out), [c.hex() for c in out[1]])
    print("many roots", _digest(_abscissas("sin(37*x)", 0.0, 60.0, grid=8192)))
