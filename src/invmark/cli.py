"""Command-line surface.

Exit codes are a stable contract: 0 success (and VERIFIED for verify-like
commands), 3 NOT_VERIFIED, 2 usage error, 1 runtime error. The carrier
bundle is secret key material: commands write it to files and never print
its contents.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .calibration import calibrate_thresholds, calibration_report, monte_carlo_null
from .carriers import ProtocolParams, build_bundle, bundle_from_dict, bundle_to_dict, estimate_rho0
from .errors import InvmarkError, MalformedDocumentError, SizeMismatchError, TooLargeError
from .hardness import (
    BRUTE_FORCE_MAX_SETS,
    brute_force_hitting_set,
    find_certificate,
    parse_hitting_set,
    reduce_hitting_set,
    verify_certificate,
    wm_remove_to_dict,
)
from .nn.model import load_checkpoint
from .pipeline import (
    DEFAULT_BETA_WM,
    EXIT_NOT_VERIFIED,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    PipelineConfig,
    load_task,
    run_pipeline,
)
from .reports import check_json, emit_report, read_report, read_text
from .watermark import verify


def _read_bundle(path: str):
    return bundle_from_dict(read_report(path))


def _thresholds_from_args(args, bundle):
    if args.calibration:
        doc = read_report(args.calibration)
        inputs = doc.get("inputs") if isinstance(doc, dict) else None
        check_json(inputs, {"m": int, "alpha": float, "rho0": float}, "calibration.inputs", MalformedDocumentError)
        if not 0.0 < inputs["alpha"] < 1.0:
            raise MalformedDocumentError("calibration.inputs.alpha must be in (0, 1)")
        if inputs["rho0"] < 0.0:
            raise MalformedDocumentError("calibration.inputs.rho0 must be >= 0")
        if inputs["m"] != bundle.m:
            raise SizeMismatchError(f"calibration report for m={inputs['m']}, bundle has m={bundle.m}")
        return calibrate_thresholds(bundle.m, inputs["alpha"], inputs["rho0"])
    return calibrate_thresholds(bundle.m, args.alpha, estimate_rho0(bundle))


def _cmd_gen_carriers(args) -> int:
    task = load_task(args.n_graphs, args.seed, args.tu_dir)
    bundle = build_bundle(task.graphs, args.m, ProtocolParams(rng_seed=args.seed))
    emit_report(bundle_to_dict(bundle), args.out)
    print(f"carrier bundle (m={bundle.m}) written to {args.out}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    bundle = _read_bundle(args.bundle) if args.bundle else None
    m = args.m if args.m is not None else (bundle.m if bundle else 128)
    if bundle is not None and m != bundle.m:
        raise SizeMismatchError(f"--m {m} given, bundle has m={bundle.m}")
    rho0 = args.rho0
    if rho0 is None:
        if bundle is None:
            print("calibrate: provide --rho0 or --bundle", file=sys.stderr)
            return EXIT_USAGE
        rho0 = estimate_rho0(bundle)
    report = calibration_report(m, args.alpha, rho0, paper_compat=args.paper_compat)
    emit_report(report, args.out)
    print(f"calibration written to {args.out}")
    if "tau" in report["computed"]:
        print(f"eps_err={report['computed']['eps_err']:.6f} tau={report['computed']['tau']}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    bundle = _read_bundle(args.bundle)
    thresholds = _thresholds_from_args(args, bundle)
    model = load_checkpoint(args.checkpoint)
    report = verify(model, bundle, thresholds)
    if args.out:
        emit_report(report.to_dict(), args.out)
    print(f"decision={report.decision} T={report.match_count} tau={report.tau} kappa={report.kappa:.4f}")
    return EXIT_OK if report.verified else EXIT_NOT_VERIFIED


def _cmd_attack(args) -> int:
    from .pipeline import parse_attack_token, run_attack

    bundle = _read_bundle(args.bundle)
    thresholds = _thresholds_from_args(args, bundle)
    model = load_checkpoint(args.checkpoint)
    task = load_task(args.n_graphs, args.seed, args.tu_dir)
    spec = parse_attack_token(args.kind, args.seed)
    _, doc = run_attack(spec, model, task, bundle, thresholds, DEFAULT_BETA_WM)
    emit_report(doc, args.out)
    print(
        f"attack={spec.kind} drift={doc['drift_gamma']:.4f} "
        f"wm_acc={doc['wm_acc']:.4f} post={doc['verification']['decision']}"
    )
    return EXIT_OK


def _cmd_reduce(args) -> int:
    hs = parse_hitting_set(read_text(args.infile), args.infile)
    if args.solve and len(hs.sets) > BRUTE_FORCE_MAX_SETS:
        raise TooLargeError(f"--solve takes at most {BRUTE_FORCE_MAX_SETS} sets, got {len(hs.sets)}")
    inst = reduce_hitting_set(hs, args.theta_min)
    emit_report(wm_remove_to_dict(inst), args.out)
    print(f"reduced instance written to {args.out}")
    if args.solve:
        hs_min = brute_force_hitting_set(hs)
        cert = find_certificate(inst)
        hs_yes = hs_min is not None and hs_min <= hs.budget
        print(f"hitting-set min={hs_min} yes={hs_yes}; wm-remove yes={cert is not None}")
        if cert is not None:
            print(f"certificate support={cert[0]} verified={verify_certificate(inst, *cert)}")
    return EXIT_OK


def _cmd_mc_null(args) -> int:
    measured = monte_carlo_null(args.m, args.tau, args.trials, args.seed)
    print(f"measured_alpha={measured:.3e} over {args.trials} trials")
    if args.out:
        emit_report(
            {"m": args.m, "tau": args.tau, "trials": args.trials, "seed": args.seed, "measured_alpha": measured},
            args.out,
        )
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    cfg = PipelineConfig(
        seed=args.seed,
        out_dir=args.out_dir,
        n_graphs=args.n_graphs,
        m=args.m,
        alpha=args.alpha,
        beta_wm=args.beta,
        epochs=args.epochs,
        backbone=args.backbone,
        attacks=tuple(args.attacks.split(",")) if args.attacks else (),
        paper_compat=args.paper_compat,
        tu_dir=args.tu_dir,
    )
    return run_pipeline(cfg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invmark",
        description="Watermark message-passing networks through a spectral invariant.",
    )
    parser.add_argument("--version", action="version", version=f"invmark {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_task_args(p):
        p.add_argument("--n-graphs", type=int, default=600)
        p.add_argument("--tu-dir", default=None, help="TUDataset directory (default: synthetic task)")

    p = sub.add_parser("gen-carriers", help="generate the secret carrier bundle")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=int, default=128)
    p.add_argument("--out", required=True)
    add_task_args(p)
    p.set_defaults(func=_cmd_gen_carriers)

    p = sub.add_parser("calibrate", help="compute verification thresholds")
    p.add_argument("--m", type=int, default=None, help="key length (default: the bundle's m, else 128)")
    p.add_argument("--alpha", type=float, default=1e-6)
    p.add_argument("--rho0", type=float, default=None)
    p.add_argument("--bundle", default=None, help="take m from this bundle and estimate rho0 from it")
    p.add_argument("--paper-compat", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("verify", help="audit a checkpoint against a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--alpha", type=float, default=1e-6)
    p.add_argument("--calibration", default=None, help="calibration report to reuse")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("attack", help="apply a model edit and re-audit")
    p.add_argument("--kind", required=True, help="PRUNE:0.5 | FINETUNE:20 | QUANTIZE:8 | KD:0.5 | KD_WM:0.5")
    p.add_argument("--bundle", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=1e-6)
    p.add_argument("--calibration", default=None)
    p.add_argument("--out", required=True)
    add_task_args(p)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("reduce", help="reduce a hitting-set instance to watermark removal")
    p.add_argument("--infile", required=True, help="`p hs m q B` header plus one line per set")
    p.add_argument("--theta-min", type=float, default=1.0)
    p.add_argument("--solve", action="store_true", help="also brute-force both sides")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("mc-null", help="Monte Carlo false-positive rate under the coin-flip null")
    p.add_argument("--m", type=int, default=128)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mc_null)

    p = sub.add_parser("pipeline", aliases=["embed"], help="full embed-verify(-attack) run")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--m", type=int, default=128)
    p.add_argument("--alpha", type=float, default=1e-6)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA_WM)
    p.add_argument("--epochs", type=int, default=120)
    p.add_argument("--backbone", choices=("gcn", "gin"), default="gcn")
    p.add_argument("--attacks", default="", help="comma-separated, e.g. PRUNE:0.5,QUANTIZE:8")
    p.add_argument("--paper-compat", action="store_true")
    add_task_args(p)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InvmarkError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
