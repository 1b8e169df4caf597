#!/usr/bin/env python3
"""Sweep the target retention ratio and compare the pipeline against baselines.

For each retention value the script reports held-out output MSE of plain
uniform truncation, compensation-only, and the full adaptive pipeline,
averaged over several seeds.
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from lowrank import PipelineConfig, compress_model, eval_compression, gen_synthetic
from lowrank.model import save_calibration


def run_variant(model, calib, cfg):
    compressed, _, _ = compress_model(model, calib, cfg)
    return eval_compression(model, compressed, calib).output_mse


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--retentions", type=float, nargs="+", default=[0.8, 0.6, 0.4, 0.3])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--blocks", type=int, default=8)
    ap.add_argument("--hidden-dim", type=int, default=64)
    ap.add_argument("--mlp-dim", type=int, default=128)
    args = ap.parse_args()

    print(f"{'retention':>9} {'plain':>12} {'comp-only':>12} {'full':>12} {'full/plain':>11}")
    print("-" * 60)
    with tempfile.TemporaryDirectory() as td:
        for trr in args.retentions:
            mse = {"plain": [], "comp": [], "full": []}
            for seed in range(args.seeds):
                model, samples = gen_synthetic(
                    seed=seed, blocks=args.blocks, d=args.hidden_dim, h=args.mlp_dim,
                    n_samples=64, tokens=64,
                )
                calib = Path(td) / f"c{seed}.st"
                save_calibration(calib, samples)
                mse["plain"].append(run_variant(model, calib, PipelineConfig(
                    trr=trr, mrr=trr, iterations=0, whiten=False, seed=seed)))
                mse["comp"].append(run_variant(model, calib, PipelineConfig(
                    trr=trr, mrr=trr, iterations=1, whiten=False, seed=seed)))
                mse["full"].append(run_variant(model, calib, PipelineConfig(
                    trr=trr, iterations=1, whiten=True, seed=seed)))
            plain, comp, full = (float(np.mean(mse[k])) for k in ("plain", "comp", "full"))
            print(f"{trr:>9.2f} {plain:>12.6f} {comp:>12.6f} {full:>12.6f} {full / plain:>11.3f}")


if __name__ == "__main__":
    main()
