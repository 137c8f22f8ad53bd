import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mcsvortex import (
    NegativeArgument,
    OutOfRange,
    cp1_model,
    model_from_name,
    tabulated_model,
    u1_model,
)
from mcsvortex.nonlinearity import _blend


class TestLinearModel:
    def test_below_truncation(self):
        model = u1_model(1.0)
        assert model.eval(0.7) == pytest.approx((0.7, 1.0, 0.0), abs=1e-15)
        assert model.f0 == 0.0
        assert model.s == 1.0

    def test_inverse_identity_point(self):
        assert u1_model(1.0).inverse(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_needs_positive_s(self):
        with pytest.raises(ValueError):
            u1_model(0.0)

    @pytest.mark.parametrize("s", [float("nan"), float("inf")])
    def test_needs_finite_s(self, s):
        with pytest.raises(ValueError, match="finite"):
            u1_model(s)


class TestRationalModel:
    def test_zero_at_one(self):
        model = cp1_model(0.5)
        f, _, _ = model.eval(1.0)
        assert f == pytest.approx(0.0, abs=1e-15)
        assert model.inverse(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_derivatives(self):
        model = cp1_model(0.5)
        for t in (0.0, 0.3, 1.0, 4.2, 25.0):
            _, f1, f2 = model.eval(t)
            assert f1 == pytest.approx(2.0 / (1.0 + t) ** 2, rel=1e-14)
            assert f2 == pytest.approx(-4.0 / (1.0 + t) ** 3, rel=1e-14)

    def test_derivatives_match_finite_differences(self):
        model = cp1_model(0.5)
        step = 1e-5
        for t in (1.0, 0.4, 2.7):
            f_m, _, _ = model.eval(t - step)
            f_0, f1, f2 = model.eval(t)
            f_p, _, _ = model.eval(t + step)
            fd1 = (f_p - f_m) / (2 * step)
            fd2 = (f_p - 2 * f_0 + f_m) / step**2
            assert f1 == pytest.approx(fd1, rel=1e-6)
            assert f2 == pytest.approx(fd2, rel=1e-4)

    def test_s_range_enforced(self):
        with pytest.raises(ValueError):
            cp1_model(1.0)
        with pytest.raises(ValueError):
            cp1_model(-1.0)


class TestTruncation:
    def test_continuity_across_threshold(self):
        model = u1_model(1.0)
        T = model.T
        eps = 1e-11
        below = model.eval(T - eps)
        above = model.eval(T + eps)
        for lo, hi in zip(below, above):
            assert abs(hi - lo) <= 1e-10

    def test_continuity_at_freeze_point(self):
        model = u1_model(1.0)
        eps = 1e-11
        below = model.eval(2 * model.T - eps)
        above = model.eval(2 * model.T + eps)
        for lo, hi in zip(below, above):
            assert abs(hi - lo) <= 1e-10

    def test_flat_beyond_twice_threshold(self):
        model = u1_model(1.0)
        f_far, f1_far, f2_far = model.eval(10 * model.T)
        assert f1_far == 0.0
        assert f2_far == 0.0
        f_edge, _, _ = model.eval(2 * model.T)
        assert f_far == pytest.approx(f_edge, rel=1e-14)

    def test_bounded_envelope(self, rng):
        model = u1_model(1.0)
        ts = np.concatenate([np.linspace(0, 10, 2001), rng.uniform(0, 50, 500)])
        f, f1, f2 = model._eval_arrays(ts)
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(f1)) and np.all(np.isfinite(f2))
        assert np.max(np.abs(f) + np.abs(f1) + np.abs(f2)) <= 10.0

    def test_monotone(self, rng):
        for model in (u1_model(1.0), cp1_model(0.5)):
            ts = np.sort(rng.uniform(0.0, 3.0 * (model.T if np.isfinite(model.T) else 2.0), 200))
            f, _, _ = model._eval_arrays(ts)
            strictly_below_t = ts < (model.T if np.isfinite(model.T) else np.inf)
            pairs = zip(f[strictly_below_t][:-1], f[strictly_below_t][1:])
            assert all(b > a for a, b in pairs)


def _time_change(T: float, t: np.ndarray) -> np.ndarray:
    """g(t), the truncation's time change: the identity up to T, frozen at
    1.5 T from 2T on."""
    w, _, _ = _blend(np.clip((t - T) / T, 0.0, 1.0))
    return np.where(t <= T, t, T * (1.0 + w))


def _check_truncation(model, edge, offset, knots=np.array([]), ulps=0):
    """f' >= 0 and f non-decreasing on [0, 3T], up to ulps units in the
    last place of the slope and value scales; f' = f'' = 0 beyond 2T; and
    f', f'' match central differences of f, f' at t = edge * T * (1 +
    offset), unless an interior table knot (where a tabulated model's f''
    jumps) lies under the stencil mapped by the time change."""
    T = model.T
    slope = (model.eval(2.0 * T)[0] - model.f0) / T  # mean slope up to 2T
    ts = np.linspace(0.0, 3.0 * T, 3001)
    f, f1, f2 = model._eval_arrays(ts)
    assert f1.min() >= -ulps * np.spacing(slope)
    assert np.diff(f).min() >= -ulps * np.spacing(np.abs(f).max())
    beyond = ts > 2.0 * T
    assert np.all(f1[beyond] == 0.0) and np.all(f2[beyond] == 0.0)

    h = 1e-6 * T
    t = edge * T * (1.0 + offset)
    lo, hi = _time_change(T, np.array([t - h, t + h]))
    assume(not np.any((knots >= lo) & (knots <= hi)))
    f, f1, f2 = model._eval_arrays(np.array([t - h, t, t + h]))
    scale1 = max(np.abs(f1).max(), slope)
    scale2 = max(np.abs(f2).max(), scale1 / T)
    assert abs((f[2] - f[0]) / (2 * h) - f1[1]) <= 1e-6 * scale1
    assert abs((f1[2] - f1[0]) / (2 * h) - f2[1]) <= 1e-6 * scale2


# t = edge * T * (1 + offset): both sides of the threshold T and of the
# freeze point 2T
edges = st.sampled_from([1.0, 2.0])
offsets = st.floats(-0.05, 0.05)
# a strictly increasing table from t = 0: positive steps in both columns
steps = st.lists(st.floats(0.1, 1.0), min_size=3, max_size=12)


class TestTruncationProperties:
    # exact: f' is a product of nonnegative factors, and f = T (1 + W)
    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.1, 100.0), edges, offsets)
    def test_linear_model(self, s, edge, offset):
        _check_truncation(u1_model(s), edge, offset)

    @settings(max_examples=60, deadline=None)
    @given(steps, st.floats(-1.0, 1.0), edges, offsets, st.data())
    def test_tabulated_model(self, t_steps, f0, edge, offset, data):
        ts = np.concatenate([[0.0], np.cumsum(t_steps)])
        f_steps = data.draw(st.lists(st.floats(0.1, 1.0), min_size=len(t_steps),
                                     max_size=len(t_steps)))
        fs = f0 + np.concatenate([[0.0], np.cumsum(f_steps)])
        model = tabulated_model(ts, fs, s=0.5 * (fs[0] + fs[-1]))
        # the interpolant's cubics cancel to roundoff where the time change
        # flattens them near 2T, so they may dip by an ulp or so there
        _check_truncation(model, edge, offset, knots=ts[1:-1], ulps=4)


def _blend_path(model, t):
    """(f, f', f'') through the time change at every point, as
    _eval_arrays computes them when some t exceeds T."""
    T = model.T
    w, wp, wpp = _blend(np.clip((t - T) / T, 0.0, 1.0))
    g = np.where(t <= T, t, T * (1.0 + w))
    gp = np.where(t <= T, 1.0, wp)
    gpp = np.where(t <= T, 0.0, wpp / T)
    fp = model.raw_fp(g)
    return model.raw_f(g), fp * gp, model.raw_fpp(g) * gp * gp + fp * gpp


def _check_fast_path(model, fractions, beyond):
    """With every t = fraction * T <= T, _eval_arrays returns the blend
    path's floats bit for bit; adding t = beyond * T > T, it still blends."""
    t = model.T * np.array(fractions)
    for got, ref in zip(model._eval_arrays(t), _blend_path(model, t)):
        assert got.tobytes() == ref.tobytes()
    t = np.append(t, beyond * model.T)
    got = model._eval_arrays(t)
    for g, ref in zip(got, _blend_path(model, t)):
        assert g.tobytes() == ref.tobytes()
    assert got[0][-1] < model.raw_f(t[-1])  # flattened: f(g(t)) < f(t)


fractions = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20)
beyonds = st.floats(1.1, 1.5)


class TestFastPathBelowThreshold:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.1, 100.0), fractions, beyonds)
    def test_linear_model(self, s, fracs, beyond):
        _check_fast_path(u1_model(s), fracs, beyond)

    @settings(max_examples=60, deadline=None)
    @given(steps, st.floats(-1.0, 1.0), fractions, beyonds, st.data())
    def test_tabulated_model(self, t_steps, f0, fracs, beyond, data):
        ts = np.concatenate([[0.0], np.cumsum(t_steps)])
        f_steps = data.draw(st.lists(st.floats(0.1, 1.0), min_size=len(t_steps),
                                     max_size=len(t_steps)))
        fs = f0 + np.concatenate([[0.0], np.cumsum(f_steps)])
        _check_fast_path(tabulated_model(ts, fs, s=0.5 * (fs[0] + fs[-1])), fracs, beyond)


class TestEvalField:
    """Field-wide evaluation: _eval_arrays over N x N arrays against the
    scalar eval."""

    def test_constant_field(self):
        model = cp1_model(0.5)
        f, f1, f2 = model._eval_arrays(np.ones((8, 8)))
        expected = model.eval(1.0)
        assert np.allclose(f, expected[0], atol=1e-15)
        assert np.allclose(f1, expected[1], atol=1e-15)
        assert np.allclose(f2, expected[2], atol=1e-15)

    def test_zeros_field_linear_model(self):
        f, f1, f2 = u1_model(1.0)._eval_arrays(np.zeros((8, 8)))
        assert np.all(f == 0.0)
        assert np.all(f1 == 1.0)
        assert np.all(f2 == 0.0)

    def test_matches_scalar_loop(self, rng):
        model = u1_model(1.0)
        t = rng.uniform(0.0, 5.0, size=(8, 8))
        f, f1, f2 = model._eval_arrays(t)
        for i in range(8):
            for j in range(8):
                sf, sf1, sf2 = model.eval(t[i, j])
                assert f[i, j] == pytest.approx(sf, abs=1e-15)
                assert f1[i, j] == pytest.approx(sf1, abs=1e-15)
                assert f2[i, j] == pytest.approx(sf2, abs=1e-15)

    def test_scalar_negative_argument(self):
        with pytest.raises(NegativeArgument):
            u1_model(1.0).eval(-0.1)


class TestInverse:
    def test_random_targets_match_bisection_oracle(self, rng):
        for model in (u1_model(1.0), cp1_model(0.5)):
            hi = model.T if np.isfinite(model.T) else 64.0
            for _ in range(20):
                y = float(rng.uniform(model.f0, model.f_upper - 1e-9))
                lo_b, hi_b = 0.0, hi
                while model._eval_arrays(np.asarray(hi_b))[0] <= y:
                    hi_b *= 2.0
                for _ in range(64):
                    mid = 0.5 * (lo_b + hi_b)
                    if float(model._eval_arrays(np.asarray(mid))[0]) > y:
                        hi_b = mid
                    else:
                        lo_b = mid
                t = model.inverse(y)
                f_t, _, _ = model.eval(t)
                assert abs(f_t - y) <= 1e-12
                assert t == pytest.approx(0.5 * (lo_b + hi_b), abs=1e-9)

    def test_round_trip_below_threshold(self, rng):
        model = u1_model(1.0)
        for t in rng.uniform(0.0, 0.95 * model.T, 20):
            f_t, _, _ = model.eval(float(t))
            assert model.inverse(f_t) == pytest.approx(float(t), abs=1e-10)

    def test_out_of_range(self):
        model = u1_model(1.0)
        with pytest.raises(OutOfRange):
            model.inverse(-0.5)
        with pytest.raises(OutOfRange):
            model.inverse(model.f_upper + 0.1)


class TestTabulatedModel:
    def make(self):
        ts = np.linspace(0.0, 3.0, 40)
        return tabulated_model(ts, np.sqrt(ts + 0.01), s=1.0)

    def test_interpolates_samples(self):
        model = self.make()
        f, _, _ = model.eval(1.5)
        assert f == pytest.approx(np.sqrt(1.51), rel=1e-3)

    def test_inverse_round_trip(self):
        model = self.make()
        y = 0.9
        t = model.inverse(y)
        f_t, _, _ = model.eval(t)
        assert abs(f_t - y) <= 1e-12

    def test_rejects_non_monotone(self):
        ts = np.linspace(0.0, 1.0, 10)
        fs = np.sin(4 * ts)
        with pytest.raises(ValueError):
            tabulated_model(ts, fs, s=0.2)

    def test_registry(self):
        assert model_from_name("u1").s == 1.0
        assert model_from_name("cp1").s == 0.5
        custom = model_from_name(
            "custom", s=1.0, table=(np.linspace(0, 3, 20), np.linspace(0, 3, 20) ** 1.0 + 0.0)
        )
        assert custom.name == "custom"
        with pytest.raises(ValueError):
            model_from_name("unknown")
        with pytest.raises(ValueError):
            model_from_name("custom")


TS = np.linspace(0.0, 3.0, 8)
TABLE = (TS, np.sqrt(TS + 0.01))
BAD_TABLE = r"^the \(t, f\) table must be two columns of finite numbers$"


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: u1_model(True), r"^s must be positive and finite, got True$"),
        (lambda: u1_model("9"), r"^s must be positive and finite, got '9'$"),
        (lambda: cp1_model(False), r"needs -1 < s < 1, got s=False$"),
        (lambda: tabulated_model(*TABLE, s="1.0"), r"^s='1.0' outside"),
        (lambda: tabulated_model([str(t) for t in TS], TABLE[1], s=1.0), BAD_TABLE),
        (lambda: tabulated_model([*TS[:-1], np.nan], TABLE[1], s=1.0), BAD_TABLE),
        (lambda: model_from_name("u1", table=TABLE), "custom model only, not 'u1'$"),
    ],
    ids=["u1-bool", "u1-string", "cp1-bool", "custom-string-s", "string-table",
         "nan-table", "u1-with-table"],
)
def test_numbers_are_checked_before_conversion(build, message):
    # float() took True for s = 1, False for s = 0 and parsed strings, a
    # NaN passed the monotonicity test, and u1 ignored a table
    with pytest.raises(ValueError, match=message):
        build()


SHORT_TABLE = r"^need matching 1-d \(t, f\) tables with >= 4 rows$"


@pytest.mark.parametrize(
    "ts,fs,message",
    [
        (TS[:3], TABLE[1][:3], SHORT_TABLE),
        (TS, TABLE[1][:-1], SHORT_TABLE),
        (TS + 0.5, TABLE[1], r"^table must start at t = 0$"),
    ],
    ids=["short", "mismatched", "not-from-zero"],
)
def test_table_shape_is_checked(ts, fs, message):
    with pytest.raises(ValueError, match=message):
        tabulated_model(ts, fs, s=1.0)
