import tracemalloc

import numpy as np
import pytest

from vitalnet import tsne
from vitalnet.errors import ValidationError
from vitalnet.tsne import (
    EARLY_EXAGGERATION,
    EXAGGERATION_ITERS,
    KL_EVERY,
    LEARNING_RATE,
    MAX_ITERS,
    MAX_ROWS,
    MIN_GAIN,
    MOMENTUM_EARLY,
    MOMENTUM_LATE,
    PERPLEXITY_TOL,
    conditional_affinities,
    embed,
    joint_affinities,
    kl_divergence,
    kl_gradient,
    symmetrize,
)


def two_blobs(n_per=50, d=100, gap=6.0, seed=0):
    rng = np.random.default_rng(seed)
    x = np.vstack(
        [rng.standard_normal((n_per, d)), rng.standard_normal((n_per, d)) + gap]
    )
    labels = np.array([0] * n_per + [1] * n_per)
    return x, labels


def realized_perplexities(cond):
    """2^H of every row of a row-stochastic conditional matrix (base-2 H):
    the perplexity each row's calibrated kernel reached."""
    logp = np.log(cond, out=np.zeros_like(cond), where=cond > 0)
    h_nats = -np.sum(cond * logp, axis=1)
    return np.exp(h_nats)


def reference_conditional_affinities(x, perplexity):
    """The perplexity search one row at a time, as it was before the rows were
    searched together: the oracle for `conditional_affinities`."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if not 2 <= perplexity < n:
        raise ValidationError(
            f"perplexity must satisfy 2 <= perplexity < n, got {perplexity} for n={n}"
        )
    sq = np.sum(x * x, axis=1)
    dists = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(dists, 0.0, out=dists)
    np.fill_diagonal(dists, 0.0)
    off_diag = ~np.eye(n, dtype=bool)
    cond = np.zeros((n, n))
    log_target = np.log(perplexity)
    for i in range(n):
        row = dists[i][off_diag[i]]
        if float(np.min(row)) < 1e-12:
            raise ValidationError(
                f"near-duplicate input rows at index {i}: squared distance below 1e-12"
            )
        beta, beta_lo, beta_hi = 1.0, 0.0, np.inf
        converged = False
        for _ in range(200):
            w = np.exp(-row * beta)
            total = w.sum()
            if total <= 0.0:
                h, p = -np.inf, w
            else:
                p = w / total
                h = np.log(total) + beta * float(np.dot(row, p))
            if abs(np.exp(h) - perplexity) <= PERPLEXITY_TOL:
                converged = True
                break
            if h > log_target:
                beta_lo = beta
                beta = beta * 2.0 if np.isinf(beta_hi) else 0.5 * (beta + beta_hi)
            else:
                beta_hi = beta
                beta = beta / 2.0 if beta_lo == 0.0 else 0.5 * (beta + beta_lo)
        if not converged:
            raise ValidationError(f"perplexity calibration did not converge for row {i}")
        cond[i][off_diag[i]] = p
    return cond


def recorded_iterations(iters):
    """The 1-based iterations after which embed records the KL."""
    return [i for i in range(1, iters + 1) if i % KL_EVERY == 0 or i == iters]


def far_point(n, outlier, duplicate=None):
    """n points one apart on a line, with row `outlier` 1000 off the line: its
    squared distances all lie in [1e6, 1e6 + n^2], so every bandwidth that could
    meet a small perplexity underflows its weights and the search fails there.
    `duplicate` copies that row into the next."""
    x = np.zeros((n, 2))
    x[:, 0] = np.arange(n)
    x[outlier] = (0.0, 1000.0)
    if duplicate is not None:
        x[duplicate + 1] = x[duplicate]
    return x


def reference_q(y):
    """Student-t weights and Q, written out as the kernel was before it was
    shared by the gradient and the KL history."""
    sq = np.sum(y * y, axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (y @ y.T)
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    w = 1.0 / (1.0 + d)
    np.fill_diagonal(w, 0.0)
    q = np.maximum(w / w.sum(), 1e-12)
    np.fill_diagonal(q, 0.0)
    return w, q


def reference_kl(p, y):
    _, q = reference_q(y)
    off = ~np.eye(p.shape[0], dtype=bool)
    pv, qv = p[off], q[off]
    mask = pv > 0
    return float(np.sum(pv[mask] * np.log(pv[mask] / qv[mask])))


def reference_gradient(p, y):
    w, q = reference_q(y)
    mult = (p - q) * w
    return 4.0 * (mult.sum(axis=1)[:, None] * y - mult @ y)


def reference_embed(x, perplexity, iters, seed, learning_rate=LEARNING_RATE):
    """The descent with Q built twice per iteration, once for the gradient
    and once for the KL, which it records after every iteration."""
    p = symmetrize(reference_conditional_affinities(x, perplexity))
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((x.shape[0], 2)) * 1e-4
    update = np.zeros_like(y)
    gains = np.ones_like(y)
    kl_history = []
    for it in range(iters):
        p_eff = p * EARLY_EXAGGERATION if it < EXAGGERATION_ITERS else p
        grad = reference_gradient(p_eff, y)
        momentum = MOMENTUM_EARLY if it < EXAGGERATION_ITERS else MOMENTUM_LATE
        flip = (update * grad) < 0.0
        gains[flip] += 0.2
        gains[~flip] *= 0.8
        np.clip(gains, MIN_GAIN, None, out=gains)
        update = momentum * update - learning_rate * gains * grad
        y = y + update
        y = y - y.mean(axis=0)
        kl_history.append(reference_kl(p, y))
    return y, kl_history


class TestConditionalAffinities:
    def test_equidistant_triangle(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        cond = conditional_affinities(x, 2.0)
        off = ~np.eye(3, dtype=bool)
        assert np.allclose(cond[off], 0.5, atol=1e-12)

    def test_rows_sum_to_one(self):
        x = np.random.default_rng(1).standard_normal((40, 7))
        cond = conditional_affinities(x, 10.0)
        assert np.abs(cond.sum(axis=1) - 1.0).max() < 1e-9
        assert np.all(np.diag(cond) == 0.0)

    def test_realized_perplexity_within_tolerance(self):
        x = np.random.default_rng(2).standard_normal((60, 12))
        for target in (5.0, 15.0, 30.0):
            cond = conditional_affinities(x, target)
            rp = realized_perplexities(cond)
            assert np.abs(rp - target).max() <= PERPLEXITY_TOL

    def test_perplexity_bounds(self):
        x = np.random.default_rng(3).standard_normal((10, 3))
        with pytest.raises(ValidationError):
            conditional_affinities(x, 10.0)  # perplexity >= n
        with pytest.raises(ValidationError):
            conditional_affinities(x, 1.0)  # below minimum

    def test_duplicate_rows_rejected(self):
        x = np.random.default_rng(4).standard_normal((8, 3))
        x[3] = x[0]
        with pytest.raises(ValidationError, match="duplicate"):
            conditional_affinities(x, 3.0)

    # scale 40 in 2-D puts most squared distances past exp's underflow at the
    # first bandwidth, so whole rows of weights start at 0
    @pytest.mark.parametrize("n,d,scale,perplexity", [
        (3, 4, 1.0, 2.0), (4, 9, 1.0, 2.0), (5, 9, 1.0, 3.5), (23, 9, 1.0, 7.5),
        (60, 12, 1.0, 30.0), (100, 100, 1.0, 20.0), (40, 2, 40.0, 5.0),
        (216, 2, 40.0, 30.0), (150, 2, 40.0, 2.0),
    ])
    def test_matches_reference_search(self, n, d, scale, perplexity):
        x = np.random.default_rng(n + d).standard_normal((n, d)) * scale
        assert np.array_equal(conditional_affinities(x, perplexity),
                              reference_conditional_affinities(x, perplexity))

    def test_underflowing_rows_are_searched(self, monkeypatch):
        calls = []
        search = tsne._entropy_and_probs

        def spy(dists, beta):
            h, p = search(dists, beta)
            calls.append(np.isneginf(h).sum())
            return h, p

        monkeypatch.setattr(tsne, "_entropy_and_probs", spy)
        x = np.random.default_rng(218).standard_normal((216, 2)) * 40.0
        conditional_affinities(x, 30.0)
        assert sum(calls) > 0

    @pytest.mark.parametrize("x,perplexity", [
        (far_point(10, 3), 3.0),  # does not converge at row 3
        (far_point(10, 3, duplicate=5), 3.0),  # row 3 fails before the duplicate
        (far_point(10, 7, duplicate=5), 3.0),  # duplicate rows 5 and 6 fail first
        (far_point(12, 9, duplicate=2), 4.0),
        (far_point(10, 0), 2.0),
        (np.random.default_rng(0).standard_normal((5, 3)), 4.5),  # above n - 1
        (np.vstack([np.zeros((2, 3)), np.eye(3)]), 2.0),  # rows 0 and 1 equal
    ])
    def test_same_error_as_reference(self, x, perplexity):
        with pytest.raises(ValidationError) as want:
            reference_conditional_affinities(x, perplexity)
        with pytest.raises(ValidationError) as got:
            conditional_affinities(x, perplexity)
        assert str(got.value) == str(want.value)

    def test_row_bound_checked_before_distances(self):
        # MAX_ROWS + 1 equal rows: the bound must fire before the n x n
        # distances (~215 MB) or the duplicate check
        x = np.zeros((MAX_ROWS + 1, 2))
        for call in (lambda: conditional_affinities(x, 30.0), lambda: embed(x)):
            tracemalloc.start()
            try:
                with pytest.raises(ValidationError, match=f"at most {MAX_ROWS} rows"):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_row_bound_fits_the_x4_cohort(self):
        assert MAX_ROWS >= 4000


class TestSymmetrize:
    def test_symmetric_input_becomes_conditional_over_n(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        cond = conditional_affinities(x, 2.0)  # already symmetric
        joint = symmetrize(cond)
        assert np.allclose(joint, cond / 3.0, atol=1e-12)

    def test_total_mass_one(self):
        x = np.random.default_rng(5).standard_normal((30, 6))
        joint = joint_affinities(x, 8.0)
        assert abs(joint.sum() - 1.0) < 1e-9

    def test_exact_symmetry_and_zero_diagonal(self):
        x = np.random.default_rng(6).standard_normal((25, 4))
        joint = joint_affinities(x, 7.0)
        assert np.array_equal(joint, joint.T)
        assert np.all(np.diag(joint) == 0.0)
        off = ~np.eye(25, dtype=bool)
        assert np.all(joint[off] > 0.0)


class TestKlGradient:
    def test_matches_finite_differences_n20(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 5))
        p = joint_affinities(x, 6.0)
        y = rng.standard_normal((20, 2))
        grad = kl_gradient(p, y)
        eps = 1e-6
        numeric = np.zeros_like(y)
        for i in range(20):
            for j in range(2):
                yp = y.copy()
                yp[i, j] += eps
                ym = y.copy()
                ym[i, j] -= eps
                numeric[i, j] = (kl_divergence(p, yp) - kl_divergence(p, ym)) / (2 * eps)
        rel = np.abs(grad - numeric).max() / max(
            np.abs(grad).max(), np.abs(numeric).max()
        )
        assert rel < 1e-5

    # a point 1e8 away from the rest puts its row of Q below the 1e-12 floor
    @pytest.mark.parametrize("n,seed,far", [(4, 0, 0.0), (17, 1, 0.0), (40, 2, 0.0),
                                            (12, 3, 1e8)])
    def test_match_reference_kernel(self, n, seed, far):
        rng = np.random.default_rng(seed)
        p = joint_affinities(rng.standard_normal((n, 5)), 3.0)
        p[0, 1] = p[1, 0] = 0.0  # a zero entry, left out of the KL sum
        y = rng.standard_normal((n, 2))
        y[-1] += far
        assert kl_divergence(p, y) == reference_kl(p, y)
        assert np.array_equal(kl_gradient(p, y), reference_gradient(p, y))
        kernel = reference_q(y)  # the kernel embed passes in, built by the caller
        assert kl_divergence(p, y, kernel) == reference_kl(p, y)
        assert np.array_equal(kl_gradient(p, y, kernel), reference_gradient(p, y))

    def test_kl_non_negative(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((15, 4))
        p = joint_affinities(x, 5.0)
        for _ in range(5):
            assert kl_divergence(p, rng.standard_normal((15, 2))) >= 0.0


class TestEmbed:
    def test_deterministic(self):
        x, _ = two_blobs(n_per=20, d=10)
        a = embed(x, perplexity=10, iters=120, seed=9)
        b = embed(x, perplexity=10, iters=120, seed=9)
        assert np.array_equal(a.Y, b.Y)

    def test_seed_changes_result(self):
        x, _ = two_blobs(n_per=20, d=10)
        a = embed(x, perplexity=10, iters=60, seed=1)
        b = embed(x, perplexity=10, iters=60, seed=2)
        assert not np.array_equal(a.Y, b.Y)

    def test_blob_recovery_and_descent(self):
        x, labels = two_blobs(n_per=50, d=100)
        emb = embed(x, perplexity=20, iters=600, seed=3)
        kl = dict(zip(recorded_iterations(600), emb.kl_history, strict=True))
        # post-exaggeration descent
        assert kl[600] < kl[EXAGGERATION_ITERS]
        assert all(np.isfinite(v) and v >= 0 for v in emb.kl_history)
        y = emb.Y
        c0 = y[labels == 0].mean(axis=0)
        c1 = y[labels == 1].mean(axis=0)
        assign = (
            np.linalg.norm(y - c1, axis=1) < np.linalg.norm(y - c0, axis=1)
        ).astype(int)
        acc = max((assign == labels).mean(), (assign != labels).mean())
        assert acc >= 0.95

    def test_kl_non_increasing_in_late_spans(self):
        x, _ = two_blobs(n_per=25, d=20)
        emb = embed(x, perplexity=10, iters=500, seed=4)
        kl = dict(zip(recorded_iterations(500), emb.kl_history, strict=True))
        late = [i for i in kl if i > EXAGGERATION_ITERS]
        assert late == [300, 350, 400, 450, 500]
        for i, j in zip(late, late[1:]):
            assert kl[j] <= kl[i] + 1e-9

    def test_rotation_leaves_affinities_unchanged(self):
        # distances are rotation-invariant, so P is too (up to round-off)
        rng = np.random.default_rng(10)
        x, _ = two_blobs(n_per=15, d=12)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        pa = joint_affinities(x, 8.0)
        pb = joint_affinities(x @ q.T, 8.0)
        assert np.abs(pa - pb).max() < 1e-12

    def test_exact_rigid_transform_gives_identical_embedding(self):
        # the descent is chaotic, so bitwise-equal Y needs bitwise-equal P;
        # a point reflection is a rigid transform that is exact in floats
        x, _ = two_blobs(n_per=15, d=12)
        a = embed(x, perplexity=8, iters=150, seed=5)
        b = embed(-x, perplexity=8, iters=150, seed=5)
        assert np.array_equal(a.Y, b.Y)

    @pytest.mark.parametrize(
        "n,perplexity,seed,iters",
        [
            (4, 2.0, 0, 40),
            (5, 3.5, 1, EXAGGERATION_ITERS),
            (12, 4.0, 2, EXAGGERATION_ITERS + 1),
            (23, 7.5, 3, 300),
            (40, 12.0, 11, EXAGGERATION_ITERS - 1),
            (60, 30.0, 7, 320),
            (60, 5.0, 3, 1),
        ],
    )
    def test_matches_reference_descent(self, n, perplexity, seed, iters):
        x = np.random.default_rng(100 + n).standard_normal((n, 9))
        y, kl_history = reference_embed(x, perplexity, iters, seed)
        got = embed(x, perplexity=perplexity, iters=iters, seed=seed)
        assert np.array_equal(got.Y, y)
        assert got.kl_history == [kl_history[i - 1] for i in recorded_iterations(iters)]

    @pytest.mark.parametrize("iters", [1, 49, 50, 120])
    def test_work_per_descent(self, monkeypatch, iters):
        calls = {"joint_affinities": 0, "kl_gradient": 0, "kl_divergence": 0}
        for name in calls:
            def counted(*args, _f=getattr(tsne, name), _name=name, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(tsne, name, counted)
        emb = embed(np.random.default_rng(1).standard_normal((30, 5)), 8.0, iters)
        assert len(emb.kl_history) == len(recorded_iterations(iters))
        assert calls == {"joint_affinities": 1, "kl_gradient": iters,
                         "kl_divergence": len(emb.kl_history)}
        assert not hasattr(tsne, "_row_entropy_and_probs")

    def test_too_few_rows(self):
        with pytest.raises(ValidationError):
            embed(np.zeros((3, 5)), perplexity=2)

    @pytest.mark.parametrize("iters", [0, MAX_ITERS + 1, 10**12, 2.5, True])
    def test_iters_bounded_before_any_work(self, monkeypatch, iters):
        assert MAX_ITERS == 100 * 1000  # 100x the default
        monkeypatch.setattr(tsne, "joint_affinities", None)  # never reached
        with pytest.raises(ValidationError, match=r"embed: iters must be an integer"):
            embed(np.random.default_rng(0).standard_normal((8, 3)), 2.0, iters)
