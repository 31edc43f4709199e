import gc
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from ncdkit.data import Dataset, LABELLED, generate_synthetic
from ncdkit.errors import ConfigError, NumericError
from ncdkit.model import init_model, load_checkpoint, restore, save_checkpoint
from ncdkit.numerics import RngState
from ncdkit.trainer import (RunConfig, evaluate_acc, kmeans_baseline,
                            metrics_csv_text, selector_report, train, tune_wta,
                            unsupervised_cluster)


def tiny_ds(seed=0, multimodal=False):
    return generate_synthetic(2, 2, 8, 5, 4 if multimodal else None, 8.0, 0.8, 0.5,
                              RngState(seed))


def tiny_cfg(**kw):
    defaults = dict(d_v=5, feature_dim=8, fused_dim=8, proj_hidden_dim=8, proj_dim=4,
                    classes_labelled=2, classes_unlabelled=2, batch_size=8, epochs=3,
                    tune_epochs=2, pretrain_epochs=4, seed=0)
    defaults.update(kw)
    return RunConfig(**defaults)


# ---- config ------------------------------------------------------------------------

def test_config_json_round_trip():
    cfg = tiny_cfg(lam=0.7, strategy_kind="cosine")
    clone = RunConfig.from_json(cfg.to_json())
    assert clone == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"learning_rate": 0.1})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        tiny_cfg(mode="zen").validate()
    with pytest.raises(ConfigError):
        tiny_cfg(tau=0.0).validate()
    with pytest.raises(ConfigError):
        tiny_cfg(fused_dim=9).validate()  # single-modal identity fusion
    with pytest.raises(ConfigError):
        tiny_cfg(wta_window=1).validate()
    with pytest.raises(ConfigError):
        tiny_cfg(selector_g1="audio").validate()  # single-modal forces visual


def test_config_resolved_wta_defaults():
    cfg = RunConfig()
    assert cfg.resolved_code_length() == cfg.fused_dim == 64
    assert cfg.resolved_threshold() == round(0.469 * 64) == 30
    assert RunConfig(wta_threshold=17).resolved_threshold() == 17


# ---- training loop -------------------------------------------------------------

def test_all_flags_off_leaves_parameters_unchanged():
    ds = tiny_ds()
    cfg = tiny_cfg(use_mse=False, use_ce=False, use_bce=False, use_nce_i=False,
                   use_nce_c=False, epochs=1)
    model, history = train(cfg, ds)
    fresh = init_model(cfg, RngState(cfg.seed).derive(11))
    for (_, pa), (_, pb) in zip(model.named_params(), fresh.named_params()):
        assert np.array_equal(pa.value.data, pb.value.data)
    assert history[0].ce == history[0].bce == history[0].cl == history[0].mse == 0.0


def test_same_seed_identical_metrics():
    ds = tiny_ds()
    cfg = tiny_cfg()
    _, h1 = train(cfg, ds)
    _, h2 = train(cfg, ds)
    assert h1 == h2


def test_metrics_csv_bitwise_identical_across_runs():
    ds = tiny_ds()
    cfg = tiny_cfg()
    _, h1 = train(cfg, ds)
    _, h2 = train(cfg, ds)
    assert metrics_csv_text(h1, cfg) == metrics_csv_text(h2, cfg)


def test_metrics_csv_layout_and_omega():
    ds = tiny_ds()
    cfg = tiny_cfg(lam=0.8)
    _, history = train(cfg, ds)
    text = metrics_csv_text(history, cfg)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config: ")
    assert json.loads(lines[0][len("# config: "):]) == json.loads(cfg.to_json())
    assert lines[1] == "epoch,acc,ce,bce,cl,mse,omega"
    omegas = [float(row.split(",")[-1]) for row in lines[2:]]
    assert all(a <= b for a, b in zip(omegas, omegas[1:]))
    for r, om in enumerate(omegas):
        want = cfg.lam * math.exp(-5.0 * (1.0 - r / cfg.epochs) ** 2)
        assert om == want


def test_discovery_requires_unlabelled_records():
    ds = tiny_ds()
    lab_only = Dataset(records=[r for r in ds.records if r.split == LABELLED],
                       classes_labelled=2, classes_unlabelled=0, d_v=5, d_a=None)
    with pytest.raises(ConfigError):
        train(tiny_cfg(), lab_only)


def test_dataset_config_mismatch_detected():
    ds = tiny_ds()
    with pytest.raises(ConfigError):
        train(tiny_cfg(d_v=6), ds)
    with pytest.raises(ConfigError):
        train(tiny_cfg(classes_unlabelled=3), ds)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_exploding_run_aborts_with_diagnostic():
    ds = tiny_ds()
    cfg = tiny_cfg(lr=1e9, weight_decay=0.0, epochs=2)
    with pytest.raises(NumericError, match="aborting"):
        train(cfg, ds)


def test_training_graphs_free_without_cyclic_gc():
    ds = tiny_ds(multimodal=True)
    cfg = tiny_cfg(multimodal=True, d_a=4, selector_g1="audio", epochs=2)
    gc.collect()
    gc.disable()
    try:
        train(cfg, ds)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_checkpoint_round_trip_reproduces_acc_bitwise(tmp_path):
    ds = tiny_ds()
    cfg = tiny_cfg()
    model, history = train(cfg, ds)
    acc_direct = evaluate_acc(model, ds, cfg.classes_unlabelled)
    assert acc_direct == history[-1].acc
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, cfg.to_json())
    state, config_json = load_checkpoint(path)
    clone = init_model(RunConfig.from_json(config_json), RngState(123))
    restore(clone, state)
    assert evaluate_acc(clone, ds, cfg.classes_unlabelled) == acc_direct


# ---- unsupervised mode ----------------------------------------------------------

def test_unsupervised_matches_train_on_unlabelled_subset():
    ds = tiny_ds()
    cfg = tiny_cfg()
    acc, history = unsupervised_cluster(cfg, ds)
    unlab = Dataset(records=[ds.records[i] for i in ds.unlabelled_indices()],
                    classes_labelled=2, classes_unlabelled=2, d_v=5, d_a=None)
    _, want = train(replace(cfg, mode="unsupervised", use_ce=False), unlab)
    assert history == want
    assert acc == want[-1].acc


def test_unsupervised_ce_and_category_terms_are_zero():
    ds = tiny_ds()
    _, history = unsupervised_cluster(tiny_cfg(), ds)
    assert all(m.ce == 0.0 for m in history)
    # the category half contributes nothing: cl equals the pure instance term
    _, inst_only = unsupervised_cluster(tiny_cfg(use_nce_c=False), ds)
    assert all(abs(a.cl - b.cl) <= 1e-12 for a, b in zip(history, inst_only))


# ---- tuning -----------------------------------------------------------------------

def tune_ds(seed=0):
    # labelled-only set with enough classes to carve out a pseudo-unlabelled split
    return generate_synthetic(4, 0, 8, 5, None, 8.0, 0.5, 0.5, RngState(seed))


def test_tune_single_cell_returned():
    cfg = tiny_cfg(classes_labelled=4)
    report = tune_wta(cfg, tune_ds(), mu_grid=[3], k_grid=[2])
    assert report.chosen == (3, 2)
    assert len(report.results) == 1


def test_tune_grid_coverage():
    cfg = tiny_cfg(classes_labelled=4)
    report = tune_wta(cfg, tune_ds(), mu_grid=[0, 3, 6], k_grid=[2, 3])
    assert len(report.results) == 6
    assert {(c.mu, c.k) for c in report.results} == {(m, kk) for m in (0, 3, 6)
                                                     for kk in (2, 3)}


def test_tune_requires_labelled_only_dataset():
    cfg = tiny_cfg(classes_labelled=4)
    with pytest.raises(ConfigError):
        tune_wta(cfg, tiny_ds(), mu_grid=[3], k_grid=[2])


def test_tune_requires_spare_labelled_classes():
    cfg = tiny_cfg(classes_labelled=2, classes_unlabelled=2)
    ds = generate_synthetic(2, 0, 8, 5, None, 8.0, 0.5, 0.5, RngState(1))
    with pytest.raises(ConfigError):
        tune_wta(cfg, ds, mu_grid=[3], k_grid=[2])


def test_tune_empty_grid_rejected():
    cfg = tiny_cfg(classes_labelled=4)
    with pytest.raises(ConfigError):
        tune_wta(cfg, tune_ds(), mu_grid=[], k_grid=[2])


def test_tune_tie_break_prefers_smaller_mu_then_k():
    report_cells = [(5, 4, 0.9), (3, 2, 0.9), (3, 4, 0.9)]
    from ncdkit.trainer import TuneCell
    cells = [TuneCell(mu=m, k=kk, acc=a) for m, kk, a in report_cells]
    chosen = max(cells, key=lambda c: (c.acc, -c.mu, -c.k))
    assert (chosen.mu, chosen.k) == (3, 2)


@pytest.mark.parametrize("kind", ["cosine", "ranking_stats", "nearest_neighbour"])
def test_alternative_pseudo_label_strategies_train(kind):
    ds = tiny_ds()
    _, history = train(tiny_cfg(strategy_kind=kind, epochs=2), ds)
    assert len(history) == 2


def test_ablation_matrix_runnable_from_config_alone():
    # the component-switch rows of the ablation table, full model included
    ds = tiny_ds()
    combos = [
        dict(use_mse=False),
        dict(use_ce=False),
        dict(use_bce=False),
        dict(use_nce_i=False, use_nce_c=False),
        dict(use_nce_i=False),
        dict(use_nce_c=False),
        dict(),
        dict(use_mse=False, use_ce=False, use_bce=False, use_nce_i=False,
             use_nce_c=False),
    ]
    for flags in combos:
        _, history = train(tiny_cfg(epochs=1, **flags), ds)
        assert len(history) == 1


# ---- baselines and reports --------------------------------------------------------

def test_kmeans_baseline_runs_and_bounded():
    ds = tiny_ds()
    acc = kmeans_baseline(tiny_cfg(), ds)
    assert 0.0 <= acc <= 1.0


def test_selector_report_covers_combos():
    ds = tiny_ds(multimodal=True)
    cfg = tiny_cfg(multimodal=True, d_a=4, fused_dim=8,
                   selector_g0="visual", selector_g1="audio", epochs=2)
    rows = selector_report(cfg, ds)
    assert [(r["g0"], r["g1"]) for r in rows] == [("visual", "visual"),
                                                  ("audio", "audio"),
                                                  ("visual", "audio")]
    assert all(0.0 <= r["acc"] <= 1.0 for r in rows)


def test_selector_report_rejects_single_modal():
    with pytest.raises(ConfigError):
        selector_report(tiny_cfg(), tiny_ds())
