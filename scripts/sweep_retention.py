#!/usr/bin/env python3
"""The paper's ablation ladder on synthetic models, at each target retention, averaged over seeds.

    python3 scripts/sweep_retention.py [--retentions 0.8 0.6 0.4 0.3] [--seeds 5] ...

Per retention, compresses each seed's model five ways: plain truncated SVD at
a uniform ratio, then with alternating compensation, then with whitening,
then with adaptive ratios, and last the same adaptive ratios with the
importance inverted (``importance_mode="one_minus_cos"``). Each seed's
calibration is walked once, up front, and every retention and variant plans
and refits from a copy of that one calibration. Prints the held-out achieved
retention, output MSE (and its ratio to plain SVD's), output cosine, overlap
and the time of the plan and refits plus eval, each the mean over the seeds.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from lowrank import PipelineConfig, calibrate_file, compress_model, eval_compression, gen_synthetic
from lowrank.model import save_calibration


def ladder(trr: float, mrr: float | None, iters: int) -> dict[str, PipelineConfig]:
    """The variants, each adding one step of the pipeline to the one before; the last inverts importance."""
    return {
        "plain truncated SVD (uniform)": PipelineConfig(trr=trr, mrr=trr, iterations=0, whiten=False),
        "  + alternating compensation": PipelineConfig(trr=trr, mrr=trr, iterations=iters, whiten=False),
        "  + whitening": PipelineConfig(trr=trr, mrr=trr, iterations=iters, whiten=True),
        "  + adaptive ratios (full)": PipelineConfig(trr=trr, mrr=mrr, iterations=iters, whiten=True),
        "  + adaptive (one_minus_cos)": PipelineConfig(
            trr=trr, mrr=mrr, iterations=iters, whiten=True, importance_mode="one_minus_cos"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--retentions", type=float, nargs="+", default=[0.8, 0.6, 0.4, 0.3])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--blocks", type=int, default=8)
    ap.add_argument("--hidden-dim", type=int, default=64)
    ap.add_argument("--mlp-dim", type=int, default=128)
    ap.add_argument("--samples", type=int, default=64)
    ap.add_argument("--tokens", type=int, default=64)
    ap.add_argument("--mrr", type=float, default=None)
    ap.add_argument("--iters", type=int, default=1)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as td:
        models = []
        for seed in range(args.seeds):
            model, samples = gen_synthetic(
                seed=seed, blocks=args.blocks, d=args.hidden_dim, h=args.mlp_dim,
                n_samples=args.samples, tokens=args.tokens,
            )
            calib = Path(td) / f"c{seed}.st"
            save_calibration(calib, samples)
            models.append((model, calib, calibrate_file(model, calib, 32, seed)))
        print(f"model: {args.blocks} blocks, d={args.hidden_dim}, h={args.mlp_dim}, "
              f"{models[0][0].param_count()} parameters; means over seeds 0..{args.seeds - 1}")
        print(f"\n{'target':>6} {'variant':<30} {'retention':>9} {'mse':>12} {'mse/plain':>9} "
              f"{'cosine':>8} {'overlap':>8} {'time':>7}")
        print("-" * 96)
        for trr in args.retentions:
            rows: dict[str, list] = {}
            for model, calib, calibration in models:
                for name, cfg in ladder(trr, args.mrr, args.iters).items():
                    t0 = time.monotonic()
                    compressed, _, _ = compress_model(model, calibration._replace(grams=dict(calibration.grams)), cfg)
                    report = eval_compression(model, compressed, calib)
                    end = report.end_to_end
                    rows.setdefault(name, []).append((
                        report.params.achieved_retention, end.output_mse, end.output_cosine_mean,
                        end.overlap_statistic, time.monotonic() - t0))
            means = {name: np.mean(runs, axis=0) for name, runs in rows.items()}
            plain = next(iter(means.values()))[1]
            for i, (name, (retention, mse, cosine, overlap, dt)) in enumerate(means.items()):
                print(f"{f'{trr:.2f}' if i == 0 else '':>6} {name:<30} {retention:>9.4f} {mse:>12.6f} "
                      f"{mse / plain:>9.3f} {cosine:>8.4f} {overlap:>8.4f} {dt:>6.2f}s", flush=True)


if __name__ == "__main__":
    main()
