"""Monte-Carlo validation machinery: draws, precoder, Wishart, SINRs."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from selfbackhaul.model import PowerAllocation, Scheme, params_from_db
from selfbackhaul import zfval

from conftest import SMALL_DB


def test_draw_determinism():
    gains = np.ones(20)
    a = zfval.draw_channel(40, 16, 4, gains, seed=123)
    b = zfval.draw_channel(40, 16, 4, gains, seed=123)
    assert np.array_equal(a.h_t, b.h_t) and np.array_equal(a.h_s, b.h_s)
    c = zfval.draw_channel(40, 16, 4, gains, seed=124)
    assert not np.array_equal(a.h_t, c.h_t)


def test_draw_shapes_and_gain_scaling():
    gains = np.concatenate([np.full(4, 1.0), np.full(16, 1e-8)])
    draw = zfval.draw_channel(400, 16, 4, gains, seed=5)
    assert draw.h_t.shape == (4, 400) and draw.h_s.shape == (16, 400)
    # second moments: 1600 entries per block, tolerance 5%
    assert np.mean(np.abs(draw.h_t) ** 2) == pytest.approx(1.0, rel=0.05)
    assert np.mean(np.abs(draw.h_s) ** 2) == pytest.approx(1e-8, rel=0.05)


@pytest.mark.parametrize("check,args", [
    pytest.param(zfval.draw_channel, (0, 16, 4, np.ones(20), 1), id="0-16-4"),
    pytest.param(zfval.draw_channel, (40, -1, 4, np.ones(20), 1),
                 id="40--1-4"),
    pytest.param(zfval.draw_channel, (40, 16, 0, np.ones(20), 1),
                 id="40-16-0"),
    pytest.param(zfval.column_norm_check, (40, 4, -1, 1000, 1),
                 id="column_norm-n_r=-1"),
    pytest.param(zfval.column_norm_check, (40, 0, 16, 1000, 1),
                 id="column_norm-m_t=0"),
    pytest.param(zfval.wishart_trace_check, (40, 0, 1000, 1),
                 id="wishart-m=0"),
])
def test_draw_channel_needs_positive_dimensions(check, args, monkeypatch):
    def no_draw(*_):
        raise AssertionError("drew before checking the dimensions")

    monkeypatch.setattr(zfval, "_complex_rows", no_draw)
    with pytest.raises(ValueError, match="dimensions must be positive"):
        check(*args)


def test_draw_gain_length_mismatch():
    with pytest.raises(ValueError, match="gains"):
        zfval.draw_channel(40, 16, 4, np.ones(19), seed=1)


@pytest.mark.parametrize("count", [10, 25])
def test_column_norm_gain_length_mismatch(count):
    # one gain per data row and per SI row: 25 are not cut to 20, and 10
    # do not reach numpy's broadcast
    with pytest.raises(ValueError,
                       match=rf"expected 20 gains .*\({count},\)"):
        zfval.column_norm_check(40, 4, 16, 10, seed=1, gains=np.ones(count))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_gains_must_be_positive_and_finite(bad):
    gains = np.ones(20)
    gains[3] = bad
    with pytest.raises(ValueError, match="positive and finite"):
        zfval.draw_channel(40, 16, 4, gains, seed=1)
    with pytest.raises(ValueError, match="positive and finite"):
        zfval.column_norm_check(40, 4, 16, 10, seed=1, gains=gains)


@pytest.mark.parametrize("shape", [(20, 40), (40, 80)], ids=["x1", "x2"])
def test_complex_rows_equal_complex_expression(shape):
    m, n = shape
    gains = np.geomspace(1e-10, 1.0, m)
    for count in (512, 488, 33, 1):
        rng = np.random.default_rng(8)
        blocks = list(zfval._complex_rows(rng, count, m, n, gains))
        assert [len(b) for b in blocks] == [
            min(zfval._BLOCK, count - start)
            for start in range(0, count, zfval._BLOCK)]
        ref = np.random.default_rng(8)
        a = ref.standard_normal((count, m, n))
        b = ref.standard_normal((count, m, n))
        old = (a + 1j * b) * np.sqrt(gains / 2.0)[None, :, None]
        assert np.array_equal(np.concatenate(blocks).view(float),
                              old.view(float))
        # the stream goes on where the whole-array draws leave it
        assert rng.standard_normal() == ref.standard_normal()


def test_column_norm_check_keeps_one_block_beside_the_real_half():
    # 80 rows x 160 antennas: a whole 512-draw complex chunk is 100 MiB
    chunk_bytes = 512 * 80 * 160 * 16
    tracemalloc.start()
    try:
        zfval.column_norm_check(160, 16, 64, 512, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * chunk_bytes


def _eigenvalue_path(h, gains):
    """eigvalsh + inv(gram[ok]) on the gain-normalized Gram matrix."""
    gram = h @ h.conj().transpose(0, 2, 1)
    r = np.sqrt(gains)
    eigs = np.linalg.eigvalsh(gram / (r[:, None] * r[None, :]))
    ok = (eigs[:, 0] > 0.0) & (eigs[:, -1] / eigs[:, 0] <= 1e10)
    return ok, np.linalg.inv(gram[ok]).diagonal(axis1=1, axis2=2).real


def _assert_same_as_eigenvalue_path(h, gains):
    """Screen ``h`` a block at a time, as the chunk loop does, against the
    eigenvalue path on each block; returns the verdicts of all draws."""
    oks = []
    for start in range(0, len(h), zfval._BLOCK):
        block = h[start:start + zfval._BLOCK]
        ok, diag = zfval._inverse_diagonals(block, gains)
        ok_ref, diag_ref = _eigenvalue_path(block, gains)
        assert np.array_equal(ok, ok_ref)
        assert np.array_equal(diag, diag_ref)
        oks.append(ok)
    return np.concatenate(oks)


def _drawn(rng, count, m, n, gains):
    """The blocks `zfval._complex_rows` yields, as one (count, m, n) stack."""
    return np.concatenate(list(zfval._complex_rows(rng, count, m, n, gains)))


def _plant(monkeypatch, plant):
    """Make `zfval._complex_rows` call ``plant`` on each whole chunk of
    draws before it yields the chunk's blocks."""
    real = zfval._complex_rows

    def planted(rng, count, m, n, gains):
        h = np.concatenate(list(real(rng, count, m, n, gains)))
        plant(h)
        for start in range(0, count, zfval._BLOCK):
            yield h[start:start + zfval._BLOCK]
    monkeypatch.setattr(zfval, "_complex_rows", planted)


def _spy_eigenvalue_rule(monkeypatch):
    """Record the verdicts of the eigenvalue rule on the draws it sees."""
    seen = []
    rule = zfval._well_conditioned

    def spy(gram, gains):
        ok = rule(gram, gains)
        seen.extend(ok.tolist())
        return ok
    monkeypatch.setattr(zfval, "_well_conditioned", spy)
    return seen


@pytest.mark.parametrize("rows,n", [(20, 40), (40, 80)], ids=["x1", "x2"])
@pytest.mark.parametrize("mixed", [False, True], ids=["unit", "mixed"])
def test_inverse_diagonals_equal_eigenvalue_path_on_draws(rows, n, mixed,
                                                          monkeypatch):
    # mixed: UE rows at 90 dB path loss beside the AN's own receive rows
    gains = np.ones(rows)
    if mixed:
        gains[:rows // 5] = 1e-9
    seen = _spy_eigenvalue_rule(monkeypatch)
    rng = np.random.default_rng(11)
    for _ in range(2):
        h = _drawn(rng, 512, rows, n, gains)
        assert _assert_same_as_eigenvalue_path(h, gains).all()
    assert seen == []   # every draw certified by the norm bound


def _built_draws(rng, conds, m, n, gains):
    """Rows whose gain-normalized Gram matrix is U diag(lam) U^H."""
    h = []
    for cond in conds:
        u, _ = np.linalg.qr(rng.standard_normal((m, m))
                            + 1j * rng.standard_normal((m, m)))
        v, _ = np.linalg.qr(rng.standard_normal((n, m))
                            + 1j * rng.standard_normal((n, m)))
        lam = np.geomspace(1.0, 1.0 / cond, m)
        h.append(np.sqrt(gains)[:, None] * (u * np.sqrt(lam)) @ v.conj().T)
    return np.array(h)


@pytest.mark.parametrize("mixed", [False, True], ids=["unit", "mixed"])
def test_inverse_diagonals_equal_eigenvalue_path_near_the_limit(mixed,
                                                                monkeypatch):
    gains = np.ones(8)
    if mixed:
        gains[:4] = 1e-8
    seen = _spy_eigenvalue_rule(monkeypatch)
    conds = np.geomspace(1e8, 1e12, 41)
    h = _built_draws(np.random.default_rng(4), conds, 8, 20, gains)
    ok = _assert_same_as_eigenvalue_path(h, gains)
    # the well-conditioned end is certified by the norm bound; the rest
    # reaches the eigenvalue rule, which keeps some draws and rejects others
    assert ok[0] and 0 < len(seen) < len(conds)
    assert any(seen) and not all(seen)


def test_inverse_diagonals_equal_eigenvalue_path_on_singular_chunk():
    gains = np.ones(20)
    h = _drawn(np.random.default_rng(6), 64, 20, 40, gains)
    h[9, 1] = h[9, 0]
    gram = h @ h.conj().transpose(0, 2, 1)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(gram)
    ok = _assert_same_as_eigenvalue_path(h, gains)
    assert not ok[9] and np.sum(ok) == 63


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_precoder_exact_nulling_and_diagonal(seed):
    gains = np.ones(20)
    draw = zfval.draw_channel(40, 16, 4, gains, seed=seed)
    sample = zfval.zf_precoder(draw)
    assert np.allclose(sample.lam, np.sqrt(1.0 * (40 - 4 - 16)))
    effective = draw.h_t @ sample.w
    diag = np.diagonal(effective)
    assert np.allclose(diag, sample.lam, rtol=1e-10)
    off = effective - np.diag(diag)
    assert np.max(np.abs(off)) <= 1e-10 * np.min(sample.lam)
    leak = np.linalg.norm(draw.h_s @ sample.w) / np.linalg.norm(draw.h_s)
    assert leak <= 1e-10


def test_precoder_condition_test_ignores_path_gains():
    # UE rows at 110 dB path loss stacked on the AN's own receive rows
    gains = np.concatenate([np.full(4, 1e-11), np.ones(16)])
    draw = zfval.draw_channel(40, 16, 4, gains, seed=3)
    sample = zfval.zf_precoder(draw)
    assert np.allclose(sample.lam, np.sqrt(1e-11 * (40 - 4 - 16)))


def test_precoder_requires_antenna_margin():
    draw = zfval.draw_channel(20, 16, 4, np.ones(20), seed=2)
    with pytest.raises(ValueError, match="antennas"):
        zfval.zf_precoder(draw)
    with pytest.raises(ValueError, match="not enough antennas"):
        zfval.column_norm_check(20, 4, 16, 10, seed=2)


def test_wishart_trace_small_case():
    check = zfval.wishart_trace_check(40, 20, trials=10000, seed=7)
    assert check.closed_form == 1.0
    assert check.rel_error < 0.01


def test_wishart_trace_wide_case():
    check = zfval.wishart_trace_check(200, 16, trials=10000, seed=7)
    assert check.closed_form == pytest.approx(16 / 184)
    assert check.rel_error < 0.01


def test_wishart_trace_screens_a_rank_deficient_draw(monkeypatch):
    chunks = []

    def rank_deficient_first_draw(h):
        if not chunks:
            h[0, 1] = h[0, 0]
        chunks.append(h.copy())
    _plant(monkeypatch, rank_deficient_first_draw)
    check = zfval.wishart_trace_check(40, 20, 1000, 3)
    # the mean of tr((HH^H)^-1) over the other 999 draws, by eigenvalues
    h = np.concatenate(chunks)[1:]
    eigs = np.linalg.eigvalsh(h @ h.conj().transpose(0, 2, 1))
    assert [len(c) for c in chunks] == [512, 488]
    assert check.empirical == pytest.approx(np.mean(np.sum(1.0 / eigs, 1)),
                                            rel=1e-12)
    assert check.rel_error < 0.01


@pytest.mark.parametrize("check", [
    lambda: zfval.wishart_trace_check(40, 20, 1000, 3),
    lambda: zfval.column_norm_check(40, 4, 16, 1000, 3),
    lambda: zfval.empirical_sinr_check(
        params_from_db(SMALL_DB), Scheme.HALF_DUPLEX,
        PowerAllocation(1000.0, 100.0, 500.0, 200.0), 1000, 3),
], ids=["wishart_trace", "column_norm", "empirical_sinr"])
def test_checks_fail_past_one_percent_rejections(check, monkeypatch):
    def every_fiftieth_draw_rank_deficient(h):
        h[::50, 1] = h[::50, 0]
    _plant(monkeypatch, every_fiftieth_draw_rank_deficient)
    # 11 draws of the 512-draw chunk and 10 of the 488-draw one
    with pytest.raises(RuntimeError, match=r"rejected 21/1000 .*limit 1%"):
        check()


def test_exactness_check_fails_past_one_percent_rejections(monkeypatch):
    def rank_deficient(h):
        h[:, 1] = h[:, 0]
    _plant(monkeypatch, rank_deficient)
    # each draw is its own one-draw chunk, so every draw is rejected
    with pytest.raises(RuntimeError, match=r"rejected 50/50 .*limit 1%"):
        zfval.exactness_check(40, 4, 16, 50, 1)


def test_wishart_closed_form_minimal_case():
    # inverse-chi-squared mean: m=1, n=2 gives exactly 1
    assert zfval.wishart_trace_closed_form(2, 1) == 1.0
    with pytest.raises(ValueError):
        zfval.wishart_trace_closed_form(2, 2)
    with pytest.raises(ValueError):
        zfval.wishart_trace_check(2, 1, trials=100, seed=0)


@pytest.mark.parametrize("check", [
    lambda trials: zfval.wishart_trace_check(40, 20, trials, seed=0),
    lambda trials: zfval.column_norm_check(40, 4, 16, trials, seed=0),
    lambda trials: zfval.exactness_check(40, 4, 16, trials, seed=0),
], ids=["wishart_trace", "column_norm", "exactness"])
@pytest.mark.parametrize("trials", [0, -5])
def test_checks_need_at_least_one_trial(check, trials):
    with pytest.raises(ValueError, match="at least 1 trial"):
        check(trials)


def test_wishart_check_deterministic():
    a = zfval.wishart_trace_check(40, 20, trials=2000, seed=11)
    b = zfval.wishart_trace_check(40, 20, trials=2000, seed=11)
    assert a.empirical == b.empirical


def test_column_norm_unit_mean():
    check = zfval.column_norm_check(40, 4, 16, trials=10000, seed=3)
    assert check.closed_form == 1.0
    assert abs(check.empirical - 1.0) <= 0.02


def test_column_norm_gain_invariance():
    # per-row gains cancel out of the normalized column norms
    gains = np.concatenate([np.full(4, 1e-8), np.ones(16)])
    check = zfval.column_norm_check(40, 4, 16, trials=4000, seed=3,
                                    gains=gains)
    assert abs(check.empirical - 1.0) <= 0.03


def test_exactness_check_batch():
    results = zfval.exactness_check(40, 4, 16, trials=60, seed=17)
    by_label = {r.label: r for r in results}
    assert by_label["effective_channel_offdiag"].empirical <= 1e-10
    assert by_label["si_null_leakage"].empirical <= 1e-10


@pytest.fixture
def small_cell():
    params = params_from_db(SMALL_DB)
    alloc = PowerAllocation(p_d=1000.0, p_u=100.0, p_bh_d=500.0,
                            p_bh_u=200.0)
    return params, alloc


def test_empirical_sinr_hd_within_five_percent(small_cell):
    params, alloc = small_cell
    results = zfval.empirical_sinr_check(params, Scheme.HALF_DUPLEX, alloc,
                                         trials=10000, seed=21)
    by_label = {r.label: r for r in results}
    assert set(by_label) == {"dl", "ul", "bh_d", "bh_u"}
    assert by_label["dl"].rel_error < 0.05
    assert by_label["bh_u"].rel_error < 0.05


def test_empirical_sinr_closed_forms_match_rate_engine(small_cell):
    from selfbackhaul.rates import sinr_set
    params, alloc = small_cell
    for scheme in Scheme:
        closed = sinr_set(scheme, params, alloc)
        expected = {"dl": closed.sinr_d, "ul": closed.sinr_u,
                    "bh_d": closed.sinr_bh_d, "bh_u": closed.sinr_bh_u}
        for check in zfval.empirical_sinr_check(params, scheme, alloc,
                                                trials=1000, seed=2):
            assert check.closed_form == expected[check.label]


def test_empirical_sinr_zero_power_exact(small_cell):
    params, _ = small_cell
    alloc = PowerAllocation(0.0, 0.0, 0.0, 0.0)
    for check in zfval.empirical_sinr_check(params, Scheme.HALF_DUPLEX,
                                            alloc, trials=1000, seed=4):
        assert check.empirical == 0.0 and check.closed_form == 0.0
        assert check.rel_error == 0.0


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_empirical_sinr_independent_of_ue_path_loss(scheme, small_cell):
    # the draws differ only by a row scaling, so every link's relative
    # error is the 80 dB one; none is rejected as ill-conditioned
    _, alloc = small_cell
    at_80 = zfval.empirical_sinr_check(params_from_db(SMALL_DB), scheme,
                                       alloc, trials=1000, seed=42)
    for l_ue_db in (90, 95, 100):
        params = params_from_db(dict(SMALL_DB, l_ue_db=l_ue_db))
        results = zfval.empirical_sinr_check(params, scheme, alloc,
                                             trials=1000, seed=42)
        assert [r.label for r in results] == [r.label for r in at_80]
        for result, ref in zip(results, at_80):
            assert result.rel_error == pytest.approx(ref.rel_error,
                                                     rel=1e-12, abs=0.0)


@pytest.mark.parametrize("scheme,field,link", [
    (Scheme.HYBRID_RELAY, "m_bh_r", "bh_d"),
    (Scheme.HYBRID_RELAY, "m_bh_t", "bh_u"),
    (Scheme.FULL_DUPLEX, "m_bh_r", "bh_d"),
], ids=lambda v: getattr(v, "value", v))
def test_empirical_sinr_skips_a_link_without_streams(scheme, field, link,
                                                     small_cell):
    params, alloc = small_cell
    results = zfval.empirical_sinr_check(replace(params, **{field: 0}),
                                         scheme, alloc, trials=1000, seed=8)
    full = zfval.empirical_sinr_check(params, scheme, alloc, trials=1000,
                                      seed=8)
    assert [r.label for r in results] == [r.label for r in full
                                          if r.label != link]


def test_empirical_sinr_needs_enough_trials(small_cell):
    params, alloc = small_cell
    with pytest.raises(ValueError, match="1000"):
        zfval.empirical_sinr_check(params, Scheme.HALF_DUPLEX, alloc,
                                   trials=100, seed=1)


def test_empirical_sinr_error_shrinks_with_array_size():
    errors = []
    for scale in (1, 2, 4):
        db = dict(SMALL_DB)
        for key in ("n_t", "n_r", "m_bh_t", "m_bh_r", "d", "u"):
            db[key] = SMALL_DB[key] * scale
        params = params_from_db(db)
        alloc = PowerAllocation(p_d=1000.0, p_u=0.0, p_bh_d=0.0, p_bh_u=0.0)
        results = zfval.empirical_sinr_check(params, Scheme.HALF_DUPLEX,
                                             alloc, trials=4000, seed=33)
        errors.append({r.label: r for r in results}["dl"].rel_error)
    assert errors[0] < 0.05
    assert errors[0] >= errors[1] >= errors[2]
