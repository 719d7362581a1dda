#!/usr/bin/env python3
"""Print identity fingerprints of four seeded training runs.

Trains ctc, sr_ctc, cr_ctc and a hard-label cr_ctc variant (flow-gradient
targets, self-masked frames excluded) on one shared dataset, the same runs
as `ctckit train --objective <objective>` (seed from `train.seed`, 0 by
default), and prints one line per run:

    <run> loss=<sha> test_prefix_ter=<ter> params=<sha> skipped=<n>

where the loss sha is the sha256 prefix of `json.dumps(loss_curve)` and the
params sha that of the parameter tensors' bytes in name order. A change
meant to keep training bit-identical prints the same four lines before and
after.

Usage:
    python scripts/fingerprint.py                      # desk, 8 epochs
    python scripts/fingerprint.py --preset smoke --set train.epochs=2

A run's own settings (the hard-label variant's `cr.*` keys) are applied after
the `--set` overrides, so every line holds the run its name says.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ctckit import config as cfgmod
from ctckit.dataset import generate_dataset
from ctckit.harness import run_experiment

# (run name, objective, extra --set assignments)
RUNS = (
    ("ctc", "ctc", ()),
    ("sr_ctc", "sr_ctc", ()),
    ("cr_ctc", "cr_ctc", ()),
    ("cr_ctc_hard_label", "cr_ctc", (
        "cr.distance=hard_label_ce",
        "cr.frame_filter=exclude_self_masked",
        "cr.target_mode=flow_gradient",
    )),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="desk", choices=sorted(cfgmod.PRESETS))
    ap.add_argument("--set", dest="assignments", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="override a single config key (after train.epochs=8)")
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    base = ["train.epochs=8", *args.assignments]
    dataset = generate_dataset(
        cfgmod.data_config(cfgmod.resolve(args.preset, assignments=base))
    )
    for name, objective, extra in RUNS:
        flat = cfgmod.resolve(args.preset, assignments=[*base, *extra])
        record, params = run_experiment(objective, flat, dataset=dataset)
        param_bytes = b"".join(params[n].tobytes() for n in params.names())
        print(f"{name} loss={_sha(json.dumps(record.loss_curve).encode())} "
              f"test_prefix_ter={record.test_prefix_ter!r} "
              f"params={_sha(param_bytes)} skipped={record.skipped_samples}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
