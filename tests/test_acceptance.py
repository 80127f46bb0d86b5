"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
with its runtime. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from vitalnet.cli import run as cli_run
from vitalnet.data import write_cohort
from vitalnet.evaluate import day_sweep, extract_features, roc_auc
from vitalnet.nn import (
    ModelConfig,
    forward,
    grad_check,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from vitalnet.stats import point_biserial
from vitalnet.synth import calibration_report, default_config
from vitalnet.tsne import (
    PERPLEXITY_TOL,
    conditional_affinities,
    embed,
    joint_affinities,
    kl_divergence,
    kl_gradient,
)

from test_tsne import realized_perplexities  # the reference helper

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


class _Budget:
    """Times a criterion and prints its PASS/FAIL line."""

    def __init__(self, name: str, seconds: float, precharged: float = 0.0):
        self.name = name
        self.limit = seconds
        self.precharged = precharged

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0 + self.precharged
        if exc_type is None:
            assert elapsed < self.limit, (
                f"{self.name}: runtime {elapsed:.1f}s exceeds {self.limit:.0f}s"
            )
            print(f"PASS {self.name} ({elapsed:.1f}s)")
        else:
            print(f"FAIL {self.name} ({elapsed:.1f}s): {exc}")
        return False


def brute_pearson(x, y):
    """Independent oracle: the raw Pearson formula on {0,1}-coded labels."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    dx = x - x.mean()
    dy = y - y.mean()
    return float(np.sum(dx * dy) / math.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))


def brute_pair_auc(probs, labels):
    """Independent oracle: all positive/negative pairs, ties credited 0.5."""
    pos = probs[labels == 1][:, None]
    neg = probs[labels == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(wins) / (pos.shape[0] * neg.shape[1])


def test_criterion_1_gradient_fidelity():
    with _Budget("criterion 1: gradient fidelity", 30):
        cfg = ModelConfig(
            conv1_filters=2,
            conv1_kernel=3,
            conv2_filters=2,
            conv2_kernel=3,
            lstm_hidden=4,
        )
        err = grad_check(cfg, eps=1e-5, window_len=16)
        assert err < 1e-6, f"max relative error {err:.3e} >= 1e-6"


def test_criterion_2_statistical_oracles():
    with _Budget("criterion 2: statistical oracles", 60):
        rng = np.random.default_rng(2024)
        checked_r = checked_auc = 0
        while checked_r < 1000 or checked_auc < 1000:
            n = int(rng.integers(3, 201))
            x = rng.normal(size=n)
            if rng.random() < 0.5:
                x = np.round(x, 1)  # force ties
            y = rng.integers(0, 2, size=n)
            if y.min() != y.max() and np.std(x) > 0 and checked_r < 1000:
                res = point_biserial(x, y)
                assert abs(res.r - brute_pearson(x, y)) < 1e-12
                checked_r += 1
            if y.min() != y.max() and checked_auc < 1000:
                assert abs(roc_auc(x, y) - brute_pair_auc(x, y)) < 1e-12
                checked_auc += 1
        worked = point_biserial([1, 2, 3, 4], [0, 0, 1, 1])
        assert abs(worked.r - math.sqrt(0.8)) < 1e-12
        assert abs(worked.p - (1.0 - math.sqrt(0.8))) < 1e-12
        assert abs(worked.r - 0.894427) < 5e-7
        assert abs(worked.p - 0.105573) < 5e-7
        auc = roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert abs(auc - 0.75) < 1e-12


def test_criterion_3_synthetic_calibration(default_cohort):
    with _Budget("criterion 3: synthetic calibration", 60):
        cfg = default_config()
        labels = default_cohort.labels()
        assert len(default_cohort) == 70
        assert int(labels.sum()) == 32 and int((labels == 0).sum()) == 38
        for group in cfg.groups:
            ages = [p.age for p in default_cohort.patients if p.label == group.label]
            for (lo, hi), expected in zip(cfg.age_bins, group.patients_per_bin):
                assert sum(1 for a in ages if lo <= a <= hi) == expected
        report = calibration_report(default_cohort, cfg)
        for cell in report.cells:
            if cell.stat == "mean":
                assert cell.overlaps, f"mean cell misses target: {cell}"
        pos_hr = next(
            c for c in report.cells
            if c.label == 1 and c.vital == "hr" and c.stat == "mean"
        )
        assert pos_hr.target == (75.78, 86.18)
        assert pos_hr.ci[0] <= 86.18 and pos_hr.ci[1] >= 75.78
        for label, ref in ((1, 48.055), (0, 55.235)):
            row = report.resting_hr[label]
            assert abs(row["reference"] - ref) < 1e-9
            assert abs(row["observed_mean"] - row["reference"]) <= 5.0


def test_criterion_4_end_to_end_learnability(pipeline):
    with _Budget(
        "criterion 4: end-to-end learnability", 600,
        precharged=pipeline.total_seconds,
    ):
        assert pipeline.test_accuracy >= 0.85, (
            f"test accuracy {pipeline.test_accuracy:.4f} < 0.85"
        )
        assert pipeline.test_auc >= 0.90, f"test AUC {pipeline.test_auc:.4f} < 0.90"
        rows = day_sweep(
            pipeline.params, pipeline.test_cohort, pipeline.stats,
            window_len=48, stride=24,
        )
        assert len(rows) == 14
        assert [r.days for r in rows] == list(range(2, 29, 2))
        print(
            f"  test accuracy {pipeline.test_accuracy:.4f}, "
            f"AUC {pipeline.test_auc:.4f}, "
            f"train time {pipeline.train_seconds:.1f}s"
        )


def test_criterion_5_tsne_correctness():
    with _Budget("criterion 5: t-SNE correctness", 120):
        rng = np.random.default_rng(5)
        # perplexity calibration and joint normalization
        x = rng.standard_normal((60, 10))
        cond = conditional_affinities(x, 15.0)
        assert np.abs(realized_perplexities(cond) - 15.0).max() <= PERPLEXITY_TOL
        joint = joint_affinities(x, 15.0)
        assert abs(joint.sum() - 1.0) <= 1e-9
        # KL gradient vs central differences at n = 20
        x20 = rng.standard_normal((20, 5))
        p20 = joint_affinities(x20, 6.0)
        y20 = rng.standard_normal((20, 2))
        grad = kl_gradient(p20, y20)
        numeric = np.zeros_like(y20)
        eps = 1e-6
        for i in range(20):
            for j in range(2):
                yp = y20.copy()
                yp[i, j] += eps
                ym = y20.copy()
                ym[i, j] -= eps
                numeric[i, j] = (
                    kl_divergence(p20, yp) - kl_divergence(p20, ym)
                ) / (2 * eps)
        rel = np.abs(grad - numeric).max() / max(
            np.abs(grad).max(), np.abs(numeric).max()
        )
        assert rel < 1e-5, f"KL gradient relative error {rel:.2e} >= 1e-5"
        # two-blob recovery
        blob = np.vstack(
            [rng.standard_normal((50, 100)), rng.standard_normal((50, 100)) + 6.0]
        )
        labels = np.array([0] * 50 + [1] * 50)
        emb = embed(blob, perplexity=20, iters=600, seed=1)
        yy = emb.Y
        c0 = yy[labels == 0].mean(axis=0)
        c1 = yy[labels == 1].mean(axis=0)
        assign = (
            np.linalg.norm(yy - c1, axis=1) < np.linalg.norm(yy - c0, axis=1)
        ).astype(int)
        acc = max((assign == labels).mean(), (assign != labels).mean())
        assert acc >= 0.95, f"blob recovery {acc:.3f} < 0.95"


def test_criterion_6_determinism(tmp_path, default_cohort):
    with _Budget("criterion 6: determinism", 120):
        # small cohort through the CLI, every seeded subcommand twice
        cfg = default_config()
        cfg.seed = 17
        for g in cfg.groups:
            g.patients_per_bin = [1, 1, 1, 1]
            g.stay_days = (3, 6)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        fast = ["--set", "conv1_filters=4", "--set", "conv2_filters=4",
                "--set", "lstm_hidden=8", "--set-train", "epochs=2"]
        outputs = {}
        for tag in ("a", "b"):
            cohort_csv = tmp_path / f"cohort_{tag}.csv"
            model = tmp_path / f"model_{tag}.json"
            emb = tmp_path / f"emb_{tag}.csv"
            assert cli_run(["synth", "--config", str(cfg_path), "--seed", "17",
                            "--out", str(cohort_csv)]) == 0
            assert cli_run(["train", "--train", str(cohort_csv), "--seed", "3",
                            "--out", str(model), *fast]) == 0
            assert cli_run(["embed", "--model", str(model), "--data",
                            str(cohort_csv), "--perplexity", "5", "--iters", "80",
                            "--seed", "2", "--out", str(emb)]) == 0
            outputs[tag] = (
                cohort_csv.read_bytes(), model.read_bytes(), emb.read_bytes()
            )
        assert outputs["a"][0] == outputs["b"][0], "synth output differs across runs"
        assert outputs["a"][1] == outputs["b"][1], "train output differs across runs"
        assert outputs["a"][2] == outputs["b"][2], "embed output differs across runs"
        # checkpoint round trip is bit-identical
        params = init_params(ModelConfig(conv1_filters=2, conv2_filters=2, lstm_hidden=4))
        ckpt = tmp_path / "rt.json"
        save_checkpoint(ckpt, params, {"window_len": 16})
        loaded, _ = load_checkpoint(ckpt)
        x = np.random.default_rng(0).standard_normal((5, 16, 3))
        assert np.array_equal(forward(params, x)[0], forward(loaded, x)[0])


def test_criterion_7_output_format_fidelity(tmp_path, pipeline):
    with _Budget("criterion 7: output format fidelity", 300):
        # stats table layout on the default synthetic cohort (golden file)
        cohort_csv = tmp_path / "cohort.csv"
        write_cohort(pipeline.cohort, cohort_csv)
        stats_csv = tmp_path / "stats.csv"
        box_csv = tmp_path / "box.csv"
        assert cli_run(["stats", "--cohort", str(cohort_csv), "--out",
                        str(stats_csv), "--boxplot-out", str(box_csv)]) == 0
        assert stats_csv.read_bytes() == (GOLDEN_DIR / "stats_default.csv").read_bytes()
        assert box_csv.read_bytes() == (GOLDEN_DIR / "boxplot_default.csv").read_bytes()
        # day-sweep curves -> line chart (the accuracy/AUC-vs-days figure)
        rows = day_sweep(
            pipeline.params, pipeline.test_cohort, pipeline.stats,
            window_len=48, stride=24,
        )
        sweep_csv = tmp_path / "sweep.csv"
        sweep_csv.write_text(
            "days,n_windows,accuracy,auc\n"
            + "\n".join(
                f"{r.days},{r.n_windows},{r.accuracy!r},{r.auc!r}" for r in rows
            )
            + "\n"
        )
        sweep_svg = tmp_path / "sweep.svg"
        assert cli_run(["plot", "--kind", "sweep", "--in", str(sweep_csv),
                        "--out", str(sweep_svg)]) == 0
        content = sweep_svg.read_text()
        assert content.count("<circle") == 2 * 14
        assert content.count("<polyline") == 2
        # embedding scatter (the 2-D feature-map figure), one marker per window
        from vitalnet.evaluate import windows_from_cohort

        test_ds = windows_from_cohort(pipeline.test_cohort, pipeline.stats, 48, 24)
        feats = extract_features(pipeline.params, test_ds)
        emb = embed(feats, perplexity=min(30.0, len(test_ds) - 2), iters=300, seed=0)
        emb_csv = tmp_path / "embedding.csv"
        emb_csv.write_text(
            "window_index,patient_id,label,y1,y2\n"
            + "\n".join(
                f"{i},{test_ds.patient_ids[i]},{int(test_ds.y[i])},"
                f"{float(emb.Y[i, 0])!r},{float(emb.Y[i, 1])!r}"
                for i in range(len(test_ds))
            )
            + "\n"
        )
        emb_svg = tmp_path / "embedding.svg"
        assert cli_run(["plot", "--kind", "embedding", "--in", str(emb_csv),
                        "--out", str(emb_svg)]) == 0
        assert emb_svg.read_text().count("<circle") == len(test_ds) + 2
        # frozen-input golden charts guard the SVG emitter itself
        for kind, ref in (("sweep", "sweep_ref.csv"), ("embedding", "embedding_ref.csv"),
                          ("boxplot", "boxplot_ref.csv")):
            out = tmp_path / f"{kind}_golden.svg"
            assert cli_run(["plot", "--kind", kind, "--in", str(DATA_DIR / ref),
                            "--out", str(out)]) == 0
            assert out.read_bytes() == (GOLDEN_DIR / f"{kind}_ref.svg").read_bytes()
