"""Command-line interface: compress, importance, eval, synth.

Exit codes: 0 success, 1 validation/usage error, 2 numerical error. A model
is named by its manifest; ``lowrank.model`` says where its container sits.
The ``--compression-ratio`` flag is the removed fraction and is
converted to a retention ratio at the boundary.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .allocation import IMPORTANCE_MODES
from .container import dump_json, write_json
from .errors import LowrankError, NumericalError
from .model import ACTIVATIONS, container_path, gen_synthetic, load_model, save_calibration, save_model
from .pipeline import (PipelineConfig, calibrate_file, compress_model, eval_compression, plan_compression,
                       write_traces_csv)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise _UsageError(message)


def _add_retention_flags(p: argparse.ArgumentParser, require: bool) -> None:
    group = p.add_mutually_exclusive_group(required=require)
    group.add_argument("--target-retention", type=float, help="fraction of parameters to keep, in (0, 1]")
    group.add_argument(
        "--compression-ratio",
        type=float,
        help="fraction of parameters to remove; converted to retention = 1 - ratio",
    )
    p.add_argument("--mrr", type=float, default=None, help="minimum retention ratio (default: trr - 0.10)")


def _resolve_trr(args) -> float:
    if args.compression_ratio is not None:
        if not 0.0 <= args.compression_ratio < 1.0:
            raise _UsageError(f"--compression-ratio must lie in [0, 1), got {args.compression_ratio}")
        return 1.0 - args.compression_ratio
    if args.target_retention is None:
        return 0.6
    if not 0.0 < args.target_retention <= 1.0:
        raise _UsageError(f"--target-retention must lie in (0, 1], got {args.target_retention}")
    return args.target_retention


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bucket-size", type=int, default=32, help="stack-of-batch bucket count M")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--importance-mode", choices=IMPORTANCE_MODES, default=PipelineConfig.importance_mode)


def build_parser() -> _Parser:
    parser = _Parser(prog="lowrank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("compress", help="compress a model against calibration data")
    p.add_argument("--model", required=True, help="model manifest")
    p.add_argument("--calib", required=True, help="calibration container")
    p.add_argument("--out", required=True, help="output directory")
    _add_retention_flags(p, require=True)
    p.add_argument("--iters", type=int, default=PipelineConfig.iterations,
                   help="alternating compensation iterations")
    p.add_argument("--whiten", action=argparse.BooleanOptionalAction, default=PipelineConfig.whiten)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("importance", help="print the compression plan as JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    _add_retention_flags(p, require=False)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_importance)

    p = sub.add_parser("eval", help="compare a compressed model to its original")
    p.add_argument("--model", required=True, help="original model manifest")
    p.add_argument("--compressed", required=True, help="compressed model manifest")
    p.add_argument("--calib", required=True)
    p.add_argument("--out", default=None, help="write report JSON here instead of stdout")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic model and calibration data")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--hidden-dim", type=int, default=32)
    p.add_argument("--mlp-dim", type=int, default=64)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--tokens", type=int, default=64)
    p.add_argument("--activation", choices=ACTIVATIONS, default="relu")
    p.set_defaults(func=_cmd_synth)
    return parser


def _load_and_calibrate(args, cfg: PipelineConfig, with_grams: bool):
    """The model and its one calibration walk: the prefix that compress and importance share."""
    model = load_model(args.model)
    cfg.validate()  # a bad setting costs no walk
    return model, calibrate_file(model, args.calib, args.bucket_size, args.seed, with_grams)


def _cmd_compress(args) -> int:
    cfg = PipelineConfig(
        trr=_resolve_trr(args),
        mrr=args.mrr,
        iterations=args.iters,
        whiten=args.whiten,
        importance_mode=args.importance_mode,
    )
    model, calibration = _load_and_calibrate(args, cfg, with_grams=True)
    compressed, plan, traces = compress_model(model, calibration, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "model.json"
    save_model(compressed, manifest)
    write_json(plan, out / "plan.json")
    write_traces_csv(traces, out / "traces.csv")
    print(f"wrote {manifest}, {container_path(manifest)}, {out / 'plan.json'}, {out / 'traces.csv'}")
    print(f"achieved retention {plan.achieved_retention:.4f} (target {cfg.trr})")
    return 0


def _cmd_importance(args) -> int:
    cfg = PipelineConfig(trr=_resolve_trr(args), mrr=args.mrr, importance_mode=args.importance_mode)
    model, calibration = _load_and_calibrate(args, cfg, with_grams=False)
    plan = plan_compression(model, calibration, cfg)
    print(dump_json(plan, "the plan"))
    return 0


def _cmd_eval(args) -> int:
    original = load_model(args.model)
    compressed = load_model(args.compressed)
    report = eval_compression(original, compressed, args.calib)
    if report.scored_on_all:
        print(f"note: {args.calib} is too small for a held-out tail; eval scored every sample", file=sys.stderr)
    if args.out:
        write_json(report, args.out)
        print(f"wrote {args.out}")
    else:
        print(dump_json(report, "the eval report"))
    return 0


def _cmd_synth(args) -> int:
    for flag in ("blocks", "hidden_dim", "mlp_dim", "samples", "tokens"):
        if getattr(args, flag) < 1:
            raise _UsageError(f"--{flag.replace('_', '-')} must be >= 1")
    model, samples = gen_synthetic(
        seed=args.seed,
        blocks=args.blocks,
        d=args.hidden_dim,
        h=args.mlp_dim,
        n_samples=args.samples,
        tokens=args.tokens,
        activation=args.activation,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "model.json"
    save_model(model, manifest)
    save_calibration(out / "calib.st", samples)
    print(f"wrote {manifest}, {container_path(manifest)}, {out / 'calib.st'}")
    return 0


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and exits 0
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except (LowrankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
