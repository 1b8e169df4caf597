#!/usr/bin/env python3
"""End-to-end demo on a synthetic model: full pipeline vs. uniform baselines.

Generates a model + calibration set, compresses it three ways at the same
target retention, and prints held-out error metrics for each variant.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lowrank import PipelineConfig, compress_model, eval_compression, gen_synthetic
from lowrank.model import save_calibration


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--blocks", type=int, default=8)
    ap.add_argument("--hidden-dim", type=int, default=64)
    ap.add_argument("--mlp-dim", type=int, default=128)
    ap.add_argument("--samples", type=int, default=64)
    ap.add_argument("--tokens", type=int, default=64)
    ap.add_argument("--target-retention", type=float, default=0.6)
    ap.add_argument("--mrr", type=float, default=None)
    ap.add_argument("--iters", type=int, default=1)
    args = ap.parse_args()

    trr = args.target_retention
    model, samples = gen_synthetic(
        seed=args.seed, blocks=args.blocks, d=args.hidden_dim, h=args.mlp_dim,
        n_samples=args.samples, tokens=args.tokens,
    )
    print(f"model: {args.blocks} blocks, d={args.hidden_dim}, h={args.mlp_dim}, "
          f"{model.param_count()} parameters; target retention {trr}")

    variants = {
        "plain truncated SVD (uniform)": PipelineConfig(
            trr=trr, mrr=trr, iterations=0, whiten=False, seed=args.seed),
        "  + alternating compensation": PipelineConfig(
            trr=trr, mrr=trr, iterations=args.iters, whiten=False, seed=args.seed),
        "  + whitening":                PipelineConfig(
            trr=trr, mrr=trr, iterations=args.iters, whiten=True, seed=args.seed),
        "  + adaptive ratios (full)":   PipelineConfig(
            trr=trr, mrr=args.mrr, iterations=args.iters, whiten=True, seed=args.seed),
    }

    with tempfile.TemporaryDirectory() as td:
        calib = Path(td) / "calib.st"
        save_calibration(calib, samples)
        print(f"\n{'variant':<34} {'retention':>9} {'mse':>12} {'cosine':>8} {'overlap':>8} {'time':>7}")
        print("-" * 82)
        for name, cfg in variants.items():
            t0 = time.monotonic()
            compressed, plan, _ = compress_model(model, calib, cfg)
            report = eval_compression(model, compressed, calib)
            dt = time.monotonic() - t0
            print(f"{name:<34} {report.achieved_retention:>9.4f} {report.output_mse:>12.6f} "
                  f"{report.output_cosine_mean:>8.4f} {report.overlap_statistic:>8.4f} {dt:>6.2f}s")


if __name__ == "__main__":
    main()
