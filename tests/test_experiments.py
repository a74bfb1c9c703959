"""Experiment harness: suite outcomes and byte-level reproducibility."""

import json

import numpy as np

from oracles import reference_bump_worst, reference_sandwich_norms
from wbslab import embed, experiments, tolerances
from wbslab.embed import FiniteSequence, structured_vectors
from wbslab.experiments import EXPERIMENT_NAMES, ExperimentConfig, run_experiment
from wbslab.tolerances import Tolerances


def test_all_suites_pass(tmp_path):
    config = ExperimentConfig(seed=42, out_dir=tmp_path)
    for name in ("cesaro-suite", "sandwich-suite", "isometry-suite"):
        result = run_experiment(name, config)
        assert result.ok, result.failures
        assert (tmp_path / f"{name}.json").exists()
        assert (tmp_path / f"{name}.csv").exists()


def test_cesaro_suite_shape():
    result = run_experiment("cesaro-suite", ExperimentConfig(seed=7))
    # 100 subsequences at six values of N each
    assert len(result.rows) == 600
    assert all(row["ok"] for row in result.rows)
    num, den = result.rows[0]["mean"].split("/")
    assert 2 * int(num) >= int(den)


def test_reports_reproducible_modulo_timestamp(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for name in EXPERIMENT_NAMES:
        for directory in (dir_a, dir_b):
            run_experiment(name, ExperimentConfig(seed=123, out_dir=directory))
        a = json.loads((dir_a / f"{name}.json").read_text())
        b = json.loads((dir_b / f"{name}.json").read_text())
        a.pop("meta")
        b.pop("meta")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert (dir_a / f"{name}.csv").read_bytes() == (dir_b / f"{name}.csv").read_bytes()


def test_different_seeds_differ():
    rows_a = run_experiment("cesaro-suite", ExperimentConfig(seed=1)).rows
    rows_b = run_experiment("cesaro-suite", ExperimentConfig(seed=2)).rows
    assert [r["rule"] for r in rows_a] != [r["rule"] for r in rows_b]


def test_alt_enumeration_config():
    result = run_experiment(
        "cesaro-suite", ExperimentConfig(seed=9, enumeration="alt")
    )
    assert result.ok


def test_sandwich_suite_collects_every_failure(monkeypatch):
    # a negative slack, patched into the pinned record, fails both bounds
    # for every nonzero vector; the suite lists them all, in order,
    # instead of raising at the first
    monkeypatch.setattr(tolerances, "DEFAULT_TOLERANCES", Tolerances(sandwich_rel=-1.0))
    config = ExperimentConfig(seed=3)
    result = run_experiment("sandwich-suite", config)
    assert not result.ok and not any(row["ok"] for row in result.rows)
    rng = np.random.default_rng(config.seed)
    expected = []
    for name, space, family, alpha in experiments._instance_battery(config):
        vectors = structured_vectors(len(family)) + [
            FiniteSequence(tuple(rng.uniform(-2.0, 2.0, size=len(family)))) for _ in range(20)
        ]
        bound_upper = 2.0 / family.K**alpha + 1.0
        for vec in vectors:
            if vec.sup_value == 0:
                continue
            sups, seminorms = reference_sandwich_norms([vec], space, family, alpha)
            norm = float(sups[0] + seminorms[0])
            check = {
                "vector_sup": vec.sup_value,
                "image_holder_norm": norm,
                "ratio": norm / vec.sup_value,
                "bound_upper": bound_upper,
                "lower_ok": False,
                "upper_ok": False,
            }
            expected.append({"instance": name, "vector": vec.to_json(), "check": check})
    assert result.failures == expected


def test_sandwich_suite_certifies_one_batch_per_instance(monkeypatch):
    verify, calls = experiments.verify_sandwich, []

    def spy(vectors, *args, **kwargs):
        calls.append(len(vectors))
        return verify(vectors, *args, **kwargs)

    monkeypatch.setattr(experiments, "verify_sandwich", spy)
    result = run_experiment("sandwich-suite", ExperimentConfig(seed=0))
    assert result.ok
    assert len(calls) == len(result.rows) == 72


def test_sandwich_suite_bump_norms_match_the_per_pair_loop(monkeypatch):
    # a float_slack of -2, patched into the pinned record, fails every
    # bump check, so every instance lists its sup_worst; the battery and
    # every other number are unchanged
    monkeypatch.setattr(tolerances, "DEFAULT_TOLERANCES", Tolerances(float_slack=-2.0))
    instances = 0
    for seed in range(6):
        config = ExperimentConfig(seed=seed)
        result = run_experiment("sandwich-suite", config)
        bump_failures = [f for f in result.failures if "sup_worst" in f]
        battery = experiments._instance_battery(config)
        assert len(result.rows) == len(bump_failures) == len(battery)
        for row, failure, (name, space, family, alpha) in zip(result.rows, bump_failures, battery):
            seminorm_worst, sup_worst = reference_bump_worst(space, family, alpha)
            assert row["instance"] == name and not row["ok"]
            assert failure == {
                "instance": name,
                "seminorm_worst": seminorm_worst,
                "sup_worst": sup_worst,
                "bound": row["seminorm_bound"],
            }
            # bit for bit, signed zeros included
            assert row["seminorm_worst"].hex() == seminorm_worst.hex()
            assert failure["sup_worst"].hex() == sup_worst.hex()
        instances += len(battery)
    assert instances == 432


def test_isometry_suite_makes_one_tent_batch(monkeypatch):
    batch, calls = embed.tent_images, []

    def spy(vectors, *args, **kwargs):
        calls.append(len(vectors))
        return batch(vectors, *args, **kwargs)

    monkeypatch.setattr(embed, "tent_images", spy)
    result = run_experiment("isometry-suite", ExperimentConfig(seed=0))
    assert result.ok and result.rows[0]["exact_cb"] == 1000
    assert calls == [1000]
