"""Pinned outputs and work counts of the batched 1-D checkers.

`check_interval_mvp` evaluates f' at the quadrature nodes and probe of a
block of trials in one array pass, `check_weighted_property` evaluates
f(a), f(b) and f' at the probes of a block of trials in one array pass
each, and `find_abscissas`/`sweep_lambda` bisect every bracket in
lockstep.  None may change a bit of what a one-trial call or a one-bracket
loop returns: (a) pins verdicts, sweep rows and abscissas as SHA-256
digests of their float.hex values, with readable spot values; (b) counts
the passes and checks that memory stays bounded in the trial count.
Regenerate (a) only for an intended change of these outputs, with
`PYTHONPATH=src python tests/test_batched_1d.py`, and say so in CHANGES.md.

The weighted digests of x^3 and exp(x) differ from those of the earlier
per-trial loop, which evaluated f(a) and f(b) on Python floats: the array
rules compute x^3 by binary powering (`expr._power`) where Python
`float ** float` called libm pow, and exp by numpy's exp where math.exp
called libm's; f' keeps every bit.  Python floats now follow the array
rules too.  15 of the 64 x^3 residuals and 47 of
the 600 exp(x) ones moved by a few ulps (the x^3 worst residual by one),
and no verdict changed; the sin(x) digest is unchanged.
"""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from mvlab import calculus, expr, integrate, mvp, mvroot
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
# check_weighted_property cases: (expression, lambda, trials, domain, seed)
WEIGHTED_CASES = [
    ("x^3", 0.5, 64, (-2.0, 2.0), 21),
    ("exp(x)", 0.3, 600, (-1.0, 2.0), 22),
    ("sin(x)", 0.25, 64, (0.0, 6.0), 23),
]
# (expression, x0, h_min, h_max, steps)
SWEEP_CASES = [
    ("log(x)", 0.05, 1e-3, 0.05, 12),  # the last interval reaches log(0)
    ("abs(x)+x^3", 0.0, 1e-3, 0.1, 8),  # the grid hits abs' kink at 0 on every row
    ("x^3", 0.0, 1e-3, 0.1, 12),
]


def _verdict(source, lam, trials, domain, seed, check=mvp.check_interval_mvp):
    v = check(expr.parse(source), lam, trials, Interval(*domain), seed)
    return [v.to_json_dict(), v.trial_residuals]


def _weighted(*case):
    return _verdict(*case, check=mvp.check_weighted_property)


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
WEIGHTED_DIGESTS = {
    "x^3": "a5ee34c1b253e0f7b3554a8de138c14859884ac45199652e651f6591e57e284a",
    "exp(x)": "549ba49d1659b8d439c00cf471b936bc84bcc85cecf9b8f21ff3ab0876f7e707",
    "sin(x)": "9832c0dd4bd37633a0069509196521a15b1534f7e659b35e8f4e070283fb41ac",
}
WEIGHTED_WORST_RESIDUALS = {
    "x^3": "0x1.823626adaa8d8p-1",
    "exp(x)": "0x1.ac001bef2893cp-3",
    "sin(x)": "0x1.418054f80f0adp-1",
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

    @pytest.mark.parametrize("case", WEIGHTED_CASES, ids=[c[0] for c in WEIGHTED_CASES])
    def test_weighted_verdict(self, case):
        out = _weighted(*case)
        assert out[0]["worst_residual"].hex() == WEIGHTED_WORST_RESIDUALS[case[0]]
        assert _digest(out) == WEIGHTED_DIGESTS[case[0]]

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


def _repeat_tree(lo, hi, levels):
    # the bisection tree built by repeating each level's bracket ends, as
    # mvroot once did, in heap order (node k halves the bracket of its parent
    # (k - 1) // 2), then put in position order: the reference for
    # `mvroot._bisection_tree`
    tree = np.empty((len(lo), 2**levels - 1))
    a, b = lo[:, None], hi[:, None]
    for j in range(levels):
        m = tree[:, 2**j - 1 : 2 ** (j + 1) - 1]
        np.multiply(0.5, a + b, out=m)
        a, b = np.repeat(a, 2, axis=1), np.repeat(b, 2, axis=1)
        a[:, 1::2] = m
        b[:, 0::2] = m
    # node i of level j halves the i-th bracket of that level, which ends at
    # edges 2i and 2i + 2 of 2^(j + 1) equal steps: its edge is 2i + 1 of them
    width = 2**levels
    edge = np.concatenate([np.arange(width >> (j + 1), width, width >> j) for j in range(levels)])
    ordered = np.empty_like(tree)
    ordered[:, edge - 1] = tree
    return ordered


class TestBisectionTree:
    @pytest.mark.parametrize("levels", range(1, 7))
    def test_matches_the_repeat_construction(self, levels):
        rng = np.random.default_rng(levels)
        negative = -rng.uniform(1.0, 1e3, 40)
        lo = np.concatenate([negative, -rng.uniform(0.0, 5.0, 40), negative])
        hi = np.concatenate([
            negative + rng.uniform(1e-9, 1.0, 40),  # below zero
            rng.uniform(0.0, 5.0, 40),  # across zero
            negative + np.abs(np.spacing(negative)) * rng.integers(1, 8, 40),  # a few ulps wide
        ])
        got = mvroot._bisection_tree(lo, hi, levels)
        assert got.tobytes() == _repeat_tree(lo, hi, levels).tobytes()

    @pytest.mark.parametrize("levels", [1, 6])
    def test_brackets_near_the_largest_double(self, levels):
        # lo + hi overflows, 0.5*lo + 0.5*hi does not; halving each end is
        # exact here, so the tree is twice the tree of the halved brackets
        big = np.finfo(float).max
        rng = np.random.default_rng(levels)
        lo = big * rng.uniform(0.5, 0.99, 40)
        hi = np.concatenate([lo[:20] + (big - lo[:20]) * rng.uniform(0.01, 1.0, 20),
                             np.full(20, big)])
        got = mvroot._bisection_tree(lo, hi, levels)
        assert np.isfinite(got).all()
        assert got.tobytes() == (2.0 * _repeat_tree(lo / 2, hi / 2, levels)).tobytes()

    def test_a_bracket_walks_its_row_in_position_order(self):
        # column k - 1 holds phi at edge k of 64 equal steps of [0, 1]; phi
        # changes sign at 0.3, so six steps leave the bracket [19/64, 20/64]
        bracket = mvroot._Bracket(0.0, 1.0, -0.3, 0.0, 1e-6)
        assert bracket.steps(np.arange(1, 64) / 64 - 0.3, 6)
        assert (bracket.lo, bracket.hi, bracket.root) == (19 / 64, 20 / 64, None)


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

    @pytest.mark.parametrize("source,domain,seed,message", [
        ("log(x) + sqrt(2 - x)", (-1.0, 3.0), 0, "sqrt of a negative argument"),
        ("log(x) + sqrt(2 - x)", (-1.0, 3.0), 3, "log of a non-positive argument"),
        ("log(x)", (-0.5, 2.0), 1, "log of a non-positive argument"),
        ("exp(709*x)", (0.99, 1.001), 1, "non-finite value"),  # f' overflows, f does not
        ("1.5e308*sin(x)", (-3.0, 3.0), 1, "non-finite residual"),  # f(b) - f(a) overflows
    ])
    @pytest.mark.parametrize("block", [None, 8])
    def test_weighted_check_raises_the_first_failing_trials_error(
        self, monkeypatch, source, domain, seed, message, block
    ):
        # at seed 0 a pass over all trials meets log's fault in f(a) first,
        # while the first failing trial fails in sqrt; with 8-trial blocks
        # the first failing trial may sit past the first block
        if block:
            monkeypatch.setattr(integrate, "_EVAL_POINTS", block)
        f, iv = expr.parse(source), Interval(*domain)
        a, b = mvp._sample_intervals(iv, 40, seed)
        first = None
        for i in range(40):
            try:
                mvp._weighted_residuals(f, 0.5, a[i : i + 1], b[i : i + 1])
            except expr.DomainError as exc:
                first = str(exc)
                break
        with pytest.raises(expr.DomainError, match=message) as raised:
            mvp.check_weighted_property(f, 0.5, 40, iv, seed)
        assert str(raised.value) == (first or str(expr.DomainError(f, "non-finite residual")))

    def test_undefined_node_off_the_bisection_path(self):
        # the one bracket is [-2^-10, 3*2^-10]; its lower half's midpoint is
        # abs' kink at 0, which the one-bracket loop never evaluates
        a = -(2.0**-10) - 511 * 2.0**-8
        res = mvroot.find_abscissas(expr.parse("abs(x) + 512*x^2"), Interval(a, a + 4.0))
        assert [c.hex() for c in res.abscissas] == ["0x1.0030000000000p-9"]

    @pytest.mark.parametrize("bad_at", [0, 5, 11])
    def test_failing_bisection_among_many_intervals(self, bad_at):
        # the failing bisection is halved over the intervals down to the bad one
        f = expr.parse("abs(x) + x^3")
        ivs = [Interval(0.5 + k / 8, 1.5 + k / 8) for k in range(11)]
        ivs.insert(bad_at, Interval(-1023 / 1024, 1023 / 1024))
        out = mvroot._abscissas(f, ivs, 1023, 1e-12)
        assert [isinstance(r, expr.DomainError) for r in out] == [k == bad_at for k in range(12)]
        assert str(out[bad_at]) == "abs is not differentiable at 0 in 'abs(x1)'"
        for k, iv in enumerate(ivs):
            if k != bad_at:
                assert out[k] == mvroot.find_abscissas(f, iv, grid=1023)

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


class TestWeightedResiduals:
    @pytest.mark.parametrize("case", WEIGHTED_CASES, ids=[c[0] for c in WEIGHTED_CASES])
    def test_each_residual_is_a_one_trial_calls(self, case):
        source, lam, trials, domain, seed = case
        f, iv = expr.parse(source), Interval(*domain)
        v = mvp.check_weighted_property(f, lam, trials, iv, seed)
        a, b = mvp._sample_intervals(iv, trials, seed)
        one = [mvp._weighted_residuals(f, lam, a[i : i + 1], b[i : i + 1])[0]
               for i in range(trials)]
        assert [r.hex() for r in v.trial_residuals] == [float(r).hex() for r in one]
        # a one-trial check draws the first interval of the many-trial one
        assert mvp.check_weighted_property(f, lam, 1, iv, seed).trial_residuals == (
            v.trial_residuals[:1])

    def test_residuals_do_not_depend_on_the_block_size(self, monkeypatch):
        f, iv = expr.parse("exp(x)"), Interval(-1.0, 2.0)
        whole = mvp.check_weighted_property(f, 0.3, 100, iv, 5)
        monkeypatch.setattr(integrate, "_EVAL_POINTS", 7)
        assert mvp.check_weighted_property(f, 0.3, 100, iv, 5) == whole


class TestWorkCounts:
    def test_weighted_check_is_one_pass_per_block(self, monkeypatch):
        f = expr.parse("exp(x) - x^2")
        scalar = _count_calls(monkeypatch, calculus, "derivatives_1d")
        evaluate = _count_calls(monkeypatch, expr, "evaluate")
        passes = _count_calls(monkeypatch, calculus, "first_derivative_many")
        evals = _count_calls(monkeypatch, expr, "eval_many")
        mvp.check_weighted_property(f, 0.25, 50, Interval(-1.0, 1.0), 2)
        assert [np.shape(p[1]) for p in passes] == [(50,)] and len(evals) == 2
        monkeypatch.setattr(integrate, "_EVAL_POINTS", 16)
        passes.clear()
        evals.clear()
        mvp.check_weighted_property(f, 0.25, 50, Interval(-1.0, 1.0), 2)
        assert [np.shape(p[1]) for p in passes] == [(16,), (16,), (16,), (2,)]
        assert len(evals) == 8
        assert scalar == [] and evaluate == []

    def test_interval_check_is_one_pass_with_a_cached_rule(self, monkeypatch):
        f = expr.parse("exp(x) - x^2")
        mvp.check_interval_mvp(f, 0.5, 3, Interval(-1.0, 1.0), 1)  # the rule is cached now
        scalar = _count_calls(monkeypatch, calculus, "derivatives_1d")
        passes = _count_calls(monkeypatch, calculus, "first_derivative_many")
        rules = _count_calls(monkeypatch, np.polynomial.legendre, "leggauss")
        v = mvp.check_interval_mvp(f, 0.25, 50, Interval(-1.0, 1.0), 2)
        assert v.trials == 50
        # 128 quadrature nodes and the probe of each trial
        assert len(passes) == 1 and np.shape(passes[0][1]) == (50 * 129,)
        assert rules == [] and scalar == []

    def test_sweep_takes_its_slopes_in_the_scan_pass(self, monkeypatch):
        # one eval_many of the 20 left ends and one of the right ends
        evaluate = _count_calls(monkeypatch, expr, "evaluate")
        evals = _count_calls(monkeypatch, expr, "eval_many")
        sweep = mvroot.sweep_lambda(expr.parse("exp(x)"), 0.3, 1e-3, 0.1, 20)
        assert [r.status for r in sweep.rows] == ["ok"] * 20
        assert [np.shape(*bindings.values()) for _, bindings in evals] == [(20,), (20,)]
        assert evaluate == []

    @pytest.mark.parametrize("a,b,sources", [
        (-8e307, 8e307, ["tanh(x)", "tanh(x/1e300)"]),
        (1e-300, 1e-3, ["x^3", "sqrt(x)", "log(x)"]),
        (-1e300, 1e300, ["tanh(x)", "tanh(x/1e299)"]),
    ])
    def test_extreme_brackets_close_within_ten_passes(self, monkeypatch, a, b, sources):
        # at tol 0 a bracket closes when it is 4 ulp wide or its midpoint no
        # longer splits it: from a width of at most 2 M to a goal of at least
        # M * 2^-51, M = max(|lo|, |hi|, 1), within about 54 midpoints
        trees = _count_calls(monkeypatch, mvroot, "_bisection_tree")
        for source in sources:
            for grid in (2, 4, 16, 64, 256, 1024):
                trees.clear()
                res = mvroot.find_abscissas(expr.parse(source), Interval(a, b), grid, tol=0.0)
                assert res.abscissas and all(a < c < b for c in res.abscissas)
                assert 1 <= len(trees) <= 10, (source, grid)

    def test_sweep_makes_no_scalar_jet_pass(self, monkeypatch):
        scalar = _count_calls(monkeypatch, calculus, "derivatives_1d")
        sweep = mvroot.sweep_lambda(expr.parse("exp(x)"), 0.3, 1e-3, 0.1, 20)
        assert [r.status for r in sweep.rows] == ["ok"] * 20
        assert scalar == []

    @staticmethod
    def _sweep_passes(monkeypatch, source, *args, grid=1024):
        # (sweep, sizes of its f' passes, number of its bisection passes)
        passes = _count_calls(monkeypatch, calculus, "first_derivative_many")
        trees = _count_calls(monkeypatch, mvroot, "_bisection_tree")
        sweep = mvroot.sweep_lambda(expr.parse(source), *args, grid=grid)
        return sweep, [np.size(p[1]) for p in passes], len(trees)

    @pytest.mark.parametrize("steps,blocks", [(20, [20]), (40, [31, 9])])
    def test_sweep_scans_a_block_of_grids_per_pass(self, monkeypatch, steps, blocks):
        # 31 grids of 1025 points fit in integrate._EVAL_POINTS; every later
        # pass is a bisection pass
        sweep, sizes, trees = self._sweep_passes(monkeypatch, "exp(x)", 0.3, 1e-3, 0.1, steps)
        assert [r.status for r in sweep.rows] == ["ok"] * steps
        assert sizes[: len(blocks)] == [1025 * n for n in blocks]
        assert len(sizes) == len(blocks) + trees

    def test_grid_wider_than_a_block_is_one_interval_per_pass(self, monkeypatch):
        sweep, sizes, trees = self._sweep_passes(
            monkeypatch, "sin(x)", 1.0, 1e-3, 0.5, 6, grid=40_000)
        assert [r.status for r in sweep.rows] == ["ok"] * 6
        assert sizes[:6] == [40_001] * 6 and len(sizes) == 6 + trees

    @pytest.mark.parametrize("source,in_fprime", [
        ("log(x)", False),  # log(0) fails the last slope, before its block's f' pass
        ("sqrt(x)", True),  # sqrt' fails at the last grid's point 0, in the f' pass
    ])
    def test_failing_interval_fails_only_its_row(self, monkeypatch, source, in_fprime):
        f, x0 = expr.parse(source), 0.05
        sweep, sizes, trees = self._sweep_passes(monkeypatch, source, x0, 1e-3, 0.05, 12)
        assert [r.status for r in sweep.rows] == ["ok"] * 11 + ["failed"]
        # the failing half of each failing pass is halved again, down to the
        # last interval; a pass that fails at its slopes makes no f' pass
        grids = [12, 6, 6, 3, 3, 1, 2, 1, 1] if in_fprime else [6, 3, 1, 1]
        scans = [1025 * n for n in grids]
        assert sizes[: len(scans)] == scans and len(sizes) == len(scans) + trees
        for row in sweep.rows[:-1]:
            res = mvroot.find_abscissas(f, Interval(x0 - row.h, x0 + row.h))
            assert row.c in res.abscissas
        with pytest.raises(expr.DomainError):
            mvroot.find_abscissas(f, Interval(x0 - sweep.rows[-1].h, x0 + sweep.rows[-1].h))

    def test_failing_weighted_check_halves_its_block(self, monkeypatch):
        # one trial of 10,000, the 5,031st, reaches below -0.9999; replayed
        # trial by trial, the block took 15,095 passes to raise its error
        passes = _count_calls(monkeypatch, calculus, "first_derivative_many")
        evals = _count_calls(monkeypatch, expr, "eval_many")
        with pytest.raises(expr.DomainError) as raised:
            mvp.check_weighted_property(
                expr.parse("log(x + 0.9999)"), 0.5, 10_000, Interval(-1.0, 1.0), 0)
        assert str(raised.value) == "log of a non-positive argument in 'log((x1+0.9999))'"
        assert len(passes) + len(evals) <= 40

    def test_failing_interval_check_halves_its_block(self, monkeypatch):
        # trial 1,238 of 5,000 has a node below 0: four blocks of 254 trials
        # pass, then the fifth is halved, at most 2*8 + 1 passes; replayed
        # trial by trial, it took 227 passes
        passes = _count_calls(monkeypatch, calculus, "first_derivative_many")
        with pytest.raises(expr.DomainError) as raised:
            mvp.check_interval_mvp(expr.parse("sqrt(x)"), 1 / 3, 5000, Interval(-0.01, 3.0), 9)
        assert str(raised.value) == (
            "sqrt of a non-positive argument (derivative undefined at 0) in 'sqrt(x1)'")
        assert mvp._INTERVAL_BLOCK == 254 and len(passes) <= 4 + 2 * 8 + 1

    @staticmethod
    def _peak_growth(check):
        # traced peak at 10,000 trials less the peak at 256
        f = expr.parse("exp(x)")
        check(f, 0.5, 10, Interval(-1.0, 1.0), 3)
        peaks = []
        for trials in (256, 10_000):
            tracemalloc.start()
            try:
                v = check(f, 0.5, trials, Interval(-1.0, 1.0), 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert v.trials == trials and not v.holds
        return peaks[1] - peaks[0]

    def test_interval_check_memory_is_bounded_in_trials(self):
        assert self._peak_growth(mvp.check_interval_mvp) <= 1 << 20

    def test_weighted_check_memory_is_bounded_in_trials(self):
        assert self._peak_growth(mvp.check_weighted_property) <= 1 << 20

    @staticmethod
    def _sweep_peak_growth():
        # traced peak of a 400-step sweep less that of a 20-step one
        f = expr.parse("exp(x)")
        mvroot.sweep_lambda(f, 0.3, 1e-3, 0.1, 4)
        peaks = []
        for steps in (20, 400):
            tracemalloc.start()
            try:
                sweep = mvroot.sweep_lambda(f, 0.3, 1e-3, 0.1, steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert [r.status for r in sweep.rows] == ["ok"] * steps
        return peaks[1] - peaks[0]

    def test_sweep_memory_is_bounded_in_steps(self, monkeypatch):
        # 380 more rows add their results and a wider bisection pass (~0.7 MB);
        # a pass over all 400 grids at once would add some 10 MB
        assert self._sweep_peak_growth() <= 3 << 19
        monkeypatch.setattr(integrate, "_EVAL_POINTS", 1 << 30)
        assert self._sweep_peak_growth() > 4 << 20


if __name__ == "__main__":
    for case in VERDICT_CASES:
        out = _verdict(*case)
        print(repr(case[0]), out[0]["worst_residual"].hex(), _digest(out))
    for case in WEIGHTED_CASES:
        out = _weighted(*case)
        print("weighted", repr(case[0]), out[0]["worst_residual"].hex(), _digest(out))
    for case in SWEEP_CASES:
        out = _sweep(*case)
        print(repr(case[0]), repr(" ".join(r[-1] for r in out[0])), _digest(out))
    out = _abscissas("sin(x)", 0.0, 20.0)
    print("sine", _digest(out), [c.hex() for c in out[1]])
    print("many roots", _digest(_abscissas("sin(37*x)", 0.0, 60.0, grid=8192)))
