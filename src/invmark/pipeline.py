"""End-to-end orchestration: carriers -> calibrate -> embed -> verify -> attacks.

Every run writes a manifest with the fully resolved configuration and the
toolkit version; any stage failure aborts with a partial manifest. All
artifacts except the manifest are timestamp-free, so reruns with one seed
are byte-identical.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .attacks import AttackSpec, finetune, kd, kd_epochs_for_retention, prune, quantize
from .calibration import beta_fn_bound, calibrate_thresholds, calibration_report
from .carriers import ProtocolParams, build_bundle, bundle_to_dict, estimate_rho0, read_key
from .data import SyntheticTask, load_tudataset, make_synthetic_task, stratified_split
from .errors import InvmarkError
from .graphs import Graph
from .nn.model import Model, ModelHyper, batch_logits, init_model, save_checkpoint
from .reports import emit_report
from .watermark import EmbedConfig, carrier_scores, embed, score_drift, verify

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_NOT_VERIFIED = 3

# The owner's watermark weight unless one is given; `invmark attack` distils KD_WM with it.
DEFAULT_BETA_WM = 5.0


@dataclass(frozen=True)
class PipelineConfig:
    seed: int
    out_dir: str
    n_graphs: int = 600
    m: int = 128
    alpha: float = 1e-6
    beta_wm: float = DEFAULT_BETA_WM
    epochs: int = 120
    backbone: str = "gcn"
    attacks: tuple[str, ...] = ()
    paper_compat: bool = False
    tu_dir: str | None = None


def task_accuracy(model: Model, graphs: list[Graph], labels: np.ndarray) -> float:
    logits = batch_logits(model, graphs).data
    return float((np.argmax(logits, axis=1) == np.asarray(labels)).mean())


def load_task(n_graphs: int, seed: int, tu_dir: str | None) -> SyntheticTask:
    """The TUDataset under ``tu_dir``, split by ``seed``; without one, the
    synthetic task of ``n_graphs`` graphs."""
    if tu_dir is None:
        return make_synthetic_task(n_graphs, seed)
    pairs = load_tudataset(tu_dir)
    _, labels = np.unique([label for _, label in pairs], return_inverse=True)
    rng = np.random.default_rng([seed, 0x7D])
    return SyntheticTask([g for g, _ in pairs], labels, *stratified_split(labels, rng))


def parse_attack_token(token: str, seed: int) -> AttackSpec:
    """Tokens like PRUNE:0.5, QUANTIZE:8, FINETUNE:20, KD:0.5, KD_WM:0.5."""
    kind, _, arg = token.partition(":")
    kind = kind.upper()
    if kind == "PRUNE":
        return AttackSpec(kind=kind, prune_fraction=float(arg or 0.5), seed=seed)
    if kind == "QUANTIZE":
        return AttackSpec(kind=kind, bits=int(arg or 8), seed=seed)
    if kind == "FINETUNE":
        return AttackSpec(kind=kind, ft_epochs=int(arg or 20), seed=seed)
    if kind in ("KD", "KD_WM"):
        return AttackSpec(kind=kind, kd_retention=float(arg or 0.5), seed=seed)
    raise ValueError(f"unknown attack token {token}")


def run_attack(
    spec: AttackSpec, model: Model, task: SyntheticTask, bundle, thresholds, beta_wm: float
) -> tuple[Model, dict]:
    """Apply one edit, measure drift and the post-edit verification.

    KD_WM distils with the watermark loss weighted by ``beta_wm``, the weight
    the owner embedded with.

    The report carries the owner's margin kappa = min |s - 1/2| and the
    false-negative bound beta_fn_bound(m, kappa, gamma, rho0) for this edit's
    drift gamma; the bound is 1 (no guarantee) when gamma >= kappa.
    """
    tr_g, tr_y = task.subset(task.train_idx)
    delta_theta = 0.0
    if spec.kind == "PRUNE":
        edited = prune(model, spec.prune_fraction)
    elif spec.kind == "QUANTIZE":
        edited = quantize(model, spec.bits)
    elif spec.kind == "FINETUNE":
        edited, delta_theta = finetune(
            model, tr_g, tr_y, epochs=spec.ft_epochs, seed=spec.seed
        )
    else:
        epochs = kd_epochs_for_retention(spec.kd_retention)
        edited = kd(
            model,
            init_model(model.hyper, spec.seed + 0x2D),
            tr_g,
            with_wm=spec.kind == "KD_WM",
            bundle=bundle if spec.kind == "KD_WM" else None,
            beta_wm=beta_wm,
            epochs=epochs,
            seed=spec.seed,
        )
        delta_theta = float(np.linalg.norm(edited.param_vector() - model.param_vector()))
    report = verify(edited, bundle, thresholds)
    owner_scores = carrier_scores(model, bundle)
    gamma = score_drift(report.scores, owner_scores)
    owner_kappa = float(read_key(owner_scores)[1].min())
    return edited, {
        "spec": asdict(spec),
        "drift_gamma": gamma,
        "delta_theta": delta_theta,
        "owner_kappa": owner_kappa,
        "beta_fn_bound": beta_fn_bound(bundle.m, owner_kappa, gamma, thresholds.rho0),
        "wm_acc": report.match_count / bundle.m,
        "verification": report.to_dict(),
    }


def run_pipeline(cfg: PipelineConfig) -> int:
    """gen-carriers -> calibrate -> embed -> verify (-> attacks -> verify).

    A failed stage is recorded in the manifest under its name, and its
    error is raised again for the caller to report.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    manifest: dict = {
        "toolkit_version": __version__,
        "config": {**asdict(cfg), "attacks": list(cfg.attacks)},
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "stages": {},
        "status": "running",
    }

    def _flush(status: str | None = None):
        if status is not None:
            manifest["status"] = status
            manifest["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        emit_report(manifest, os.path.join(cfg.out_dir, "manifest.json"))

    try:
        stage = "embed"  # a config embed would reject fails before any keygen work
        embed_cfg = EmbedConfig(beta_wm=cfg.beta_wm, epochs=cfg.epochs, seed=cfg.seed)
        stage = "attacks"  # so does an attack token the attacks stage would reject
        specs = [parse_attack_token(token, cfg.seed) for token in cfg.attacks]

        stage = "task"
        task = load_task(cfg.n_graphs, cfg.seed, cfg.tu_dir)
        manifest["stages"]["task"] = {"graphs": len(task.graphs)}
        _flush()

        stage = "carriers"
        bundle = build_bundle(task.graphs, cfg.m, ProtocolParams(rng_seed=cfg.seed))
        emit_report(bundle_to_dict(bundle), os.path.join(cfg.out_dir, "bundle.json"))
        manifest["stages"]["carriers"] = {"m": bundle.m, "path": "bundle.json"}
        _flush()

        stage = "calibrate"
        rho0 = estimate_rho0(bundle)
        thresholds = calibrate_thresholds(cfg.m, cfg.alpha, rho0)
        cal = calibration_report(cfg.m, cfg.alpha, rho0, paper_compat=cfg.paper_compat)
        emit_report(cal, os.path.join(cfg.out_dir, "calibration.json"))
        manifest["stages"]["calibrate"] = {"rho0": rho0, "tau": thresholds.tau}
        _flush()

        stage = "embed"
        tr_g, tr_y = task.subset(task.train_idx)
        te_g, te_y = task.subset(task.test_idx)
        hyper = ModelHyper(
            feature_dim=task.graphs[0].node_features.shape[1]
            if task.graphs[0].node_features is not None
            else 4,
            n_classes=int(task.labels.max()) + 1,
            backbone=cfg.backbone,
        )
        model = init_model(hyper, cfg.seed)
        model, logs = embed(model, tr_g, tr_y, bundle, embed_cfg)
        save_checkpoint(model, os.path.join(cfg.out_dir, "model.json"))
        emit_report(
            {
                "epochs": [asdict(entry) for entry in logs],
                "test_accuracy": task_accuracy(model, te_g, te_y),
                "wm_acc": logs[-1].wm_acc,
            },
            os.path.join(cfg.out_dir, "training.json"),
        )
        manifest["stages"]["embed"] = {"path": "model.json"}
        _flush()

        stage = "verify"
        report = verify(model, bundle, thresholds)
        emit_report(report.to_dict(), os.path.join(cfg.out_dir, "verification.json"))
        manifest["stages"]["verify"] = {"decision": report.decision, "T": report.match_count}
        _flush()

        stage = "attacks"
        decision_ok = report.verified
        for i, spec in enumerate(specs):
            _, doc = run_attack(spec, model, task, bundle, thresholds, cfg.beta_wm)
            name = f"attack_{i}_{spec.kind.lower()}.json"
            emit_report(doc, os.path.join(cfg.out_dir, name))
            manifest["stages"][f"attack_{i}"] = {
                "kind": spec.kind,
                "path": name,
                "post_decision": doc["verification"]["decision"],
            }
            _flush()

        _flush("ok")
        return EXIT_OK if decision_ok else EXIT_NOT_VERIFIED
    except (InvmarkError, ValueError, OSError) as exc:
        manifest["stages"][stage] = {"error": f"{type(exc).__name__}: {exc}"}
        _flush("failed")
        raise
