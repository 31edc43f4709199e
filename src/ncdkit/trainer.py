"""End-to-end training loop and experiment harness.

Every run is a pure function of its RunConfig and dataset: model init, batch
sampling, augmentation, and the permutation bank all draw from streams
derived from the one seed, so repeated runs produce byte-identical metrics.

Per batch the loop combines cross-entropy on labelled items, the unified
contrastive loss on projected embeddings, pairwise binary cross-entropy on
the clustering head driven by pseudo-labels recomputed from the current
fused features, and the two-view consistency penalty, ramp-weighted per
epoch. Clustering accuracy over the whole unlabelled set is logged every
epoch.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .data import (AugmentPolicy, BatchSpec, Dataset, LABELLED, UNLABELLED_SPLIT,
                   sample_batch)
from .errors import ConfigError, NumericError
from .evaluation import clustering_acc, kmeans
from .losses import (ContrastiveBatch, ModalitySelectors, RampSchedule, UNLABELLED,
                     bce_pairwise, cross_entropy, joint_loss, mse_consistency,
                     nce_category, nce_instance, ramp_weight, unified_cl)
from .model import ModelState, assign_cluster, forward, init_model
from .numerics import RngState, Tensor, sgd_momentum_step, softmax
from .pairing import PairStrategy, STRATEGY_KINDS, build_hasher, pairwise_labels

MODES = ("discovery", "unsupervised")

# fixed tags for deriving independent random streams from the run seed
_TAG_MODEL, _TAG_HASHER, _TAG_DATA, _TAG_KMEANS = 11, 12, 13, 14


@dataclass
class RunConfig:
    """Every knob of a run; serialized verbatim into checkpoints and metrics."""

    # architecture
    d_v: int = 16
    d_a: int = 16
    multimodal: bool = False
    feature_dim: int = 64
    fused_dim: int = 64
    proj_hidden_dim: int = 64
    proj_dim: int = 32
    classes_labelled: int = 6
    classes_unlabelled: int = 4
    head_u_hidden: bool = False
    # contrastive / ramp
    tau: float = 0.5
    lam: float = 1.0
    selector_g0: str = "visual"
    selector_g1: str = "visual"
    # optimizer (desk-calibrated: the float64 MLP core diverges above ~lr 0.05)
    epochs: int = 60
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-3
    cosine_lr: bool = True
    # batch composition
    batch_size: int = 64
    labelled_fraction: float | None = None
    # pseudo-label strategy
    strategy_kind: str = "wta"
    wta_code_length: int | None = None   # default: fused_dim
    wta_window: int = 4
    wta_threshold: int | None = None     # default: round(0.469 * code length)
    cosine_threshold: float = 0.9
    ranking_top_k: int = 5
    neighbour_count: int = 2
    # component switches
    use_mse: bool = True
    use_ce: bool = True
    use_bce: bool = True
    use_nce_i: bool = True
    use_nce_c: bool = True
    # run
    mode: str = "discovery"
    seed: int = 0
    data_path: str | None = None
    tune_epochs: int = 12
    pretrain_epochs: int = 600
    # augmentation
    aug_noise_sigma: float = 1.0
    aug_dropout: float = 0.2
    aug_scale_lo: float = 0.7
    aug_scale_hi: float = 1.3

    def resolved_code_length(self) -> int:
        return self.wta_code_length if self.wta_code_length is not None else self.fused_dim

    def resolved_threshold(self) -> int:
        if self.wta_threshold is not None:
            return self.wta_threshold
        return int(round(0.469 * self.resolved_code_length()))

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.strategy_kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy_kind {self.strategy_kind!r}")
        for name in ("d_v", "feature_dim", "fused_dim", "proj_hidden_dim", "proj_dim",
                     "classes_labelled", "batch_size", "epochs", "tune_epochs",
                     "pretrain_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.multimodal and self.d_a < 1:
            raise ConfigError(f"d_a must be >= 1 for multimodal runs, got {self.d_a}")
        if self.classes_unlabelled < 2:
            raise ConfigError(f"classes_unlabelled must be >= 2, got {self.classes_unlabelled}")
        if not self.multimodal and self.fused_dim != self.feature_dim:
            raise ConfigError("single-modal runs need fused_dim == feature_dim (identity fusion)")
        if self.tau <= 0 or self.lam <= 0 or self.lr <= 0:
            raise ConfigError("tau, lam, and lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        f = self.labelled_fraction
        if f is not None and not 0.0 <= f <= 1.0:
            raise ConfigError(f"labelled_fraction must be in [0, 1], got {f}")
        for name in ("selector_g0", "selector_g1"):
            if getattr(self, name) not in ("visual", "audio"):
                raise ConfigError(f"{name} must be visual or audio")
        if not self.multimodal and (self.selector_g0 != "visual" or self.selector_g1 != "visual"):
            raise ConfigError("single-modal runs force both modality selectors to visual")
        if self.strategy_kind == "wta":
            h = self.resolved_code_length()
            mu = self.resolved_threshold()
            if not 2 <= self.wta_window <= self.fused_dim:
                raise ConfigError(
                    f"wta_window must satisfy 2 <= k <= {self.fused_dim}, got {self.wta_window}")
            if not 0 <= mu <= h:
                raise ConfigError(f"wta_threshold must satisfy 0 <= mu <= {h}, got {mu}")
        if not 0 < self.aug_scale_lo <= self.aug_scale_hi:
            raise ConfigError("augment scale range must satisfy 0 < lo <= hi")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        cfg = cls(**payload)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(payload)


@dataclass
class EpochMetrics:
    epoch: int
    acc: float
    ce: float
    bce: float
    cl: float
    mse: float
    omega: float


@dataclass
class TuneCell:
    mu: int
    k: int
    acc: float


@dataclass
class TuneReport:
    results: list[TuneCell]
    chosen: tuple[int, int]


def _materialize_strategy(cfg: RunConfig, rng: RngState) -> PairStrategy:
    if cfg.strategy_kind == "wta":
        hasher = build_hasher(cfg.fused_dim, cfg.resolved_code_length(),
                              cfg.wta_window, cfg.resolved_threshold(), rng)
        return PairStrategy("wta", hasher=hasher)
    return PairStrategy(cfg.strategy_kind, cosine_threshold=cfg.cosine_threshold,
                        ranking_top_k=cfg.ranking_top_k, neighbour_count=cfg.neighbour_count)


def _validate_dataset(cfg: RunConfig, ds: Dataset):
    if ds.multimodal != cfg.multimodal:
        raise ConfigError("dataset and config disagree about modalities")
    if ds.d_v != cfg.d_v or (cfg.multimodal and ds.d_a != cfg.d_a):
        raise ConfigError(
            f"dataset dims ({ds.d_v}, {ds.d_a}) do not match config ({cfg.d_v}, {cfg.d_a})")
    has_unlab = bool(ds.unlabelled_indices())
    has_lab = bool(ds.labelled_indices())
    if not has_unlab:
        raise ConfigError("no unlabelled records: nothing to discover")
    if has_unlab and ds.classes_unlabelled != cfg.classes_unlabelled:
        raise ConfigError(
            f"dataset has {ds.classes_unlabelled} unlabelled classes, "
            f"config expects {cfg.classes_unlabelled}")
    if has_lab and ds.classes_labelled != cfg.classes_labelled:
        raise ConfigError(
            f"dataset has {ds.classes_labelled} labelled classes, "
            f"config expects {cfg.classes_labelled}")


def _step_losses(model: ModelState, batch, cfg: RunConfig, strategy: PairStrategy):
    """Per-batch loss components; disabled or empty terms are literal 0.0."""
    ce_only = not (cfg.use_bce or cfg.use_mse or cfg.use_nce_i or cfg.use_nce_c)
    # CE reads only the labelled head; the projections and probs_u go unbuilt
    out = forward(model, batch.x_v, batch.x_a, mode="labelled" if ce_only else "both")
    labels = batch.labels
    lab_idx = np.flatnonzero(labels != UNLABELLED)
    unlab_idx = np.flatnonzero(labels == UNLABELLED)

    ce = 0.0
    if cfg.use_ce and lab_idx.size:
        ce = cross_entropy(out.logits_l.rows(lab_idx), labels[lab_idx])

    cl = 0.0
    if cfg.use_nce_i or cfg.use_nce_c:
        cbatch = ContrastiveBatch(out.z_hat_v, labels, cfg.tau, z_audio=out.z_hat_a)
        sel = ModalitySelectors(cfg.selector_g0, cfg.selector_g1)
        if cfg.use_nce_i and cfg.use_nce_c:
            cl = unified_cl(cbatch, sel)
        elif cfg.use_nce_i:
            cl = nce_instance(cbatch, sel)
        else:
            cl = nce_category(cbatch, sel)

    bce = 0.0
    if cfg.use_bce and unlab_idx.size:
        # pseudo-labels are data: computed from current fused features,
        # no gradient flows through the hashing
        s = pairwise_labels(strategy, out.z_bar.data[unlab_idx])
        bce = bce_pairwise(out.probs_u.rows(unlab_idx), s)

    mse = 0.0
    if cfg.use_mse:
        terms = []
        if lab_idx.size:
            probs_l = softmax(out.logits_l)
            terms.append((mse_consistency(probs_l.rows(lab_idx[0::2]),
                                          probs_l.rows(lab_idx[1::2])), lab_idx.size // 2))
        if unlab_idx.size:
            terms.append((mse_consistency(out.probs_u.rows(unlab_idx[0::2]),
                                          out.probs_u.rows(unlab_idx[1::2])), unlab_idx.size // 2))
        if terms:
            pairs = sum(n for _, n in terms)
            mse = 0.0
            for t, n in terms:
                mse = mse + t * (n / pairs)
    return ce, bce, cl, mse


def _component_value(term) -> float:
    return term.item() if isinstance(term, Tensor) else float(term)


def evaluate_acc(model: ModelState, ds: Dataset, n_clusters: int) -> float:
    """Clustering accuracy of the current model over all unlabelled records."""
    unlab = [ds.records[i] for i in ds.unlabelled_indices()]
    x_v = np.stack([r.x_v for r in unlab])
    x_a = np.stack([r.x_a for r in unlab]) if ds.multimodal else None
    out = forward(model, x_v, x_a, mode="unlabelled")
    pred = assign_cluster(out.probs_u)
    y_true = np.array([r.label for r in unlab], dtype=np.int64) - ds.classes_labelled
    return clustering_acc(y_true, pred, n_clusters).acc


def train(cfg: RunConfig, ds: Dataset) -> tuple[ModelState, list[EpochMetrics]]:
    """Run the full loop, returning the final model and per-epoch metrics."""
    cfg.validate()
    _validate_dataset(cfg, ds)

    root = RngState(cfg.seed)
    model = init_model(cfg, root.derive(_TAG_MODEL))
    strategy = _materialize_strategy(cfg, root.derive(_TAG_HASHER))
    policy = AugmentPolicy(noise_sigma=cfg.aug_noise_sigma, dropout_prob=cfg.aug_dropout,
                           scale_range=(cfg.aug_scale_lo, cfg.aug_scale_hi))
    spec = BatchSpec(batch_size=cfg.batch_size, labelled_fraction=cfg.labelled_fraction,
                     rng=root.derive(_TAG_DATA))
    steps_per_epoch = max(1, len(ds.records) // cfg.batch_size)

    history: list[EpochMetrics] = []
    for epoch in range(cfg.epochs):
        sched = RampSchedule(lam=cfg.lam, total=cfg.epochs, current=epoch)
        omega = ramp_weight(sched)
        lr = cfg.lr * (0.5 * (1.0 + math.cos(math.pi * epoch / cfg.epochs))
                       if cfg.cosine_lr else 1.0)
        sums = np.zeros(4)
        for step in range(steps_per_epoch):
            batch = sample_batch(ds, spec, policy)
            try:
                ce, bce, cl, mse = _step_losses(model, batch, cfg, strategy)
                joint = joint_loss(ce, bce, cl, mse, sched)
                if isinstance(joint, Tensor):
                    joint.backward()
                    if cfg.weight_decay > 0:
                        for p in model.params():
                            if p.value.grad is None:
                                p.value.grad = np.zeros_like(p.value.data)
                            p.value.grad += cfg.weight_decay * p.value.data
                    sgd_momentum_step(model.params(), lr, cfg.momentum)
            except NumericError as exc:
                snapshot = (f"epoch {epoch}, step {step}, lr {lr:.6g}, omega {omega:.6g}, "
                            f"batch records {batch.record_ids[:8].tolist()}")
                raise NumericError(f"non-finite loss, aborting ({snapshot}): {exc}") from exc
            sums += [_component_value(t) for t in (ce, bce, cl, mse)]
        means = sums / steps_per_epoch
        acc = evaluate_acc(model, ds, cfg.classes_unlabelled)
        history.append(EpochMetrics(epoch=epoch, acc=acc, ce=float(means[0]),
                                    bce=float(means[1]), cl=float(means[2]),
                                    mse=float(means[3]), omega=omega))
    return model, history


def unsupervised_cluster(cfg: RunConfig, ds: Dataset) -> tuple[float, list[EpochMetrics]]:
    """Discovery with the labelled collection dropped entirely.

    Cross-entropy and category discrimination see no labels and contribute
    exactly zero; everything else is the standard loop. Returns the final
    clustering accuracy plus the full history.
    """
    records = [ds.records[i] for i in ds.unlabelled_indices()]
    ds_unlab = Dataset(records=records, classes_labelled=ds.classes_labelled,
                       classes_unlabelled=ds.classes_unlabelled, d_v=ds.d_v, d_a=ds.d_a)
    cfg_unsup = replace(cfg, mode="unsupervised")
    _, history = train(cfg_unsup, ds_unlab)
    return history[-1].acc, history


def kmeans_baseline(cfg: RunConfig, ds: Dataset, restarts: int = 10) -> float:
    """k-means accuracy on fused features of a model pretrained with
    cross-entropy on the labelled data only.

    Pretraining runs to its terminal phase (pretrain_epochs, longer than a
    discovery run) so the baseline features reflect a converged classifier.
    """
    cfg_pre = replace(cfg, use_bce=False, use_mse=False, use_nce_i=False,
                      use_nce_c=False, use_ce=True, labelled_fraction=1.0,
                      epochs=cfg.pretrain_epochs)
    model, _ = train(cfg_pre, ds)
    unlab = [ds.records[i] for i in ds.unlabelled_indices()]
    x_v = np.stack([r.x_v for r in unlab])
    x_a = np.stack([r.x_a for r in unlab]) if ds.multimodal else None
    feats = forward(model, x_v, x_a, mode="unlabelled").z_bar.data
    pred, _ = kmeans(feats, cfg.classes_unlabelled, restarts=restarts,
                     rng=RngState(cfg.seed).derive(_TAG_KMEANS))
    y_true = np.array([r.label for r in unlab], dtype=np.int64) - ds.classes_labelled
    return clustering_acc(y_true, pred, cfg.classes_unlabelled).acc


def tune_wta(cfg: RunConfig, ds: Dataset, mu_grid, k_grid) -> TuneReport:
    """Grid-search (mu, k) by pretending part of the labelled data is unlabelled.

    The last classes_unlabelled labelled classes become a pseudo-unlabelled
    split; each grid cell trains briefly (tune_epochs) and is scored by
    clustering accuracy on that split. Ties prefer the smaller mu, then the
    smaller k.
    """
    mu_grid = sorted(set(int(m) for m in mu_grid))
    k_grid = sorted(set(int(k) for k in k_grid))
    if not mu_grid or not k_grid:
        raise ConfigError("tune grids must be nonempty")
    if any(r.split != LABELLED for r in ds.records):
        raise ConfigError("tune_wta expects a labelled-only dataset")
    pseudo_labelled = cfg.classes_labelled - cfg.classes_unlabelled
    if pseudo_labelled < 1:
        raise ConfigError(
            f"need more labelled classes ({cfg.classes_labelled}) than unlabelled "
            f"({cfg.classes_unlabelled}) to split a tuning set")

    records = []
    for r in ds.records:
        split = LABELLED if r.label < pseudo_labelled else UNLABELLED_SPLIT
        records.append(replace(r, split=split))
    pseudo_ds = Dataset(records=records, classes_labelled=pseudo_labelled,
                        classes_unlabelled=cfg.classes_unlabelled, d_v=ds.d_v, d_a=ds.d_a)
    base = replace(cfg, classes_labelled=pseudo_labelled, epochs=cfg.tune_epochs)

    results = []
    for mu in mu_grid:
        for k in k_grid:
            cell_cfg = replace(base, wta_threshold=mu, wta_window=k, strategy_kind="wta")
            _, history = train(cell_cfg, pseudo_ds)
            results.append(TuneCell(mu=mu, k=k, acc=history[-1].acc))
    chosen = max(results, key=lambda c: (c.acc, -c.mu, -c.k))
    return TuneReport(results=results, chosen=(chosen.mu, chosen.k))


def selector_report(cfg: RunConfig, ds: Dataset,
                    combos=(("visual", "visual"), ("audio", "audio"), ("visual", "audio"))):
    """Final accuracy per modality-selector combination (multi-modal only)."""
    if not cfg.multimodal:
        raise ConfigError("selector_report requires a multimodal config")
    rows = []
    for g0, g1 in combos:
        run_cfg = replace(cfg, selector_g0=g0, selector_g1=g1)
        _, history = train(run_cfg, ds)
        rows.append({"g0": g0, "g1": g1, "acc": history[-1].acc})
    return rows


# ---- metrics file ---------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def metrics_csv_text(history: list[EpochMetrics], cfg: RunConfig) -> str:
    lines = [f"# config: {cfg.to_json()}", "epoch,acc,ce,bce,cl,mse,omega"]
    for m in history:
        lines.append(",".join([str(m.epoch), _fmt(m.acc), _fmt(m.ce), _fmt(m.bce),
                               _fmt(m.cl), _fmt(m.mse), _fmt(m.omega)]))
    return "\n".join(lines) + "\n"


def write_metrics(history: list[EpochMetrics], cfg: RunConfig, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(metrics_csv_text(history, cfg))
