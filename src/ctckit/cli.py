"""Command-line entry points.

Subcommands: gen-data, train, evaluate, decode, analyze, gradcheck, sweep.
Config precedence: built-in defaults < --preset < --config file < --set.
Output paths default into $CTCKIT_OUT_DIR (falling back to the working
directory); every output folder is checked before any training. Exit codes:
0 success, 1 invalid input, 2 an oracle asked beyond its capacity.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from .ctc import ctc_loss_from_logits
from .dataset import generate_dataset, load_dataset, save_dataset
from .decode import greedy_decode, prefix_beam_decode
from .encoder import check_param_shapes, forward, init_params, load_checkpoint
from .errors import CapacityError, CtcKitError, InvalidInputError, writing
from .harness import (
    OUT_DIR_ENV,
    default_out_dir,
    run_experiment,
    sweep,
    write_sweep_csv,
)
from .lattice import LabelSequence, Vocabulary, load_lattice_text
from .peakedness import CSV_HEADER, peak_stats, save_plot_data


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for capacity
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidInputError(message)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="named config bundle (desk, smoke)")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument(
        "--set",
        dest="assignments",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a single config key (repeatable)",
    )


def _resolve(args) -> dict[str, object]:
    return cfgmod.resolve(args.preset, args.config, args.assignments)


def _out_path(args, name: str) -> str:
    base = args.out_dir or default_out_dir()
    with writing("output directory", base):
        os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def _check_folder(what: str, path: str) -> str:
    """``path``, once its folder is known to exist: a command checks its
    outputs before it trains, and the write itself keeps its guard."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise InvalidInputError(f"cannot write {what} {path}: no folder {folder}")
    return path


def build_parser() -> _Parser:
    root = _Parser(prog="ctckit", description=__doc__)
    root.add_argument(
        "--out-dir",
        default=None,
        help=f"output directory (default ${OUT_DIR_ENV} or '.')",
    )
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and save a synthetic dataset")
    _add_config_flags(p)
    p.add_argument("--out", help="output .npz path")

    p = sub.add_parser("train", help="train one model and record the run")
    _add_config_flags(p)
    p.add_argument("--objective", choices=cfgmod.OBJECTIVES)
    p.add_argument("--seed", type=int)
    p.add_argument("--data", help="dataset .npz (generated when omitted)")
    p.add_argument("--save", help="checkpoint output path")
    p.add_argument("--record", help="run record JSON output path")

    p = sub.add_parser("evaluate", help="decode a split with a trained model")
    _add_config_flags(p)
    p.add_argument("--load", required=True, help="checkpoint path")
    p.add_argument("--data", help="dataset .npz (generated when omitted)")
    p.add_argument("--split", default="test", choices=("train", "dev", "test"))

    p = sub.add_parser("decode", help="decode one saved lattice file")
    p.add_argument("--input", required=True, help="lattice text file")
    p.add_argument("--method", default="greedy", choices=("greedy", "prefix"))
    p.add_argument("--beam", type=int, default=4)

    p = sub.add_parser("analyze", help="peakedness statistics of a lattice")
    p.add_argument("--input", required=True, help="lattice text file")
    p.add_argument("--plot-data", help="write per-frame CSV here")

    p = sub.add_parser("gradcheck", help="finite-difference self-test")
    p.add_argument("--coords", type=int, default=10)

    p = sub.add_parser("sweep", help="one-at-a-time ablation grid")
    _add_config_flags(p)
    p.add_argument(
        "--axes",
        help="comma-separated axis names (default: all)",
    )
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--out", help="CSV output path")
    return root


def _load_or_generate(args, flat):
    if getattr(args, "data", None):
        return load_dataset(args.data)
    return generate_dataset(cfgmod.data_config(flat))


def _cmd_gen_data(args) -> int:
    flat = _resolve(args)
    out = _check_folder("dataset file", args.out or _out_path(args, "dataset.npz"))
    dataset = generate_dataset(cfgmod.data_config(flat))
    save_dataset(dataset, out)
    print(
        f"wrote {out}: train={len(dataset.train)} dev={len(dataset.dev)} "
        f"test={len(dataset.test)} vocab={dataset.config.vocab_size}"
    )
    return 0


def _cmd_train(args) -> int:
    flat = _resolve(args)
    objective = args.objective or str(flat["train.objective"])
    seed = args.seed if args.seed is not None else int(flat["train.seed"])
    record_path = _check_folder("run record", args.record or _out_path(
        args, f"run_{objective}_seed{seed}.json"
    ))
    if args.save:
        _check_folder("checkpoint", args.save)
    dataset = _load_or_generate(args, flat)
    record, _ = run_experiment(
        objective,
        flat,
        seed=seed,
        dataset=dataset,
        checkpoint_path=args.save,
    )
    record.save(record_path)
    final = record.loss_curve[-1]
    final_text = "None" if final is None else f"{final:.4f}"
    print(
        f"{objective} seed={seed} epochs={record.epochs} "
        f"batch={record.batch_size} final_loss={final_text} "
        f"dev_ter={record.dev_greedy_ter:.4f} test_ter={record.test_greedy_ter:.4f} "
        f"skipped={record.skipped_samples}"
    )
    print(f"record: {record_path}")
    return 0


def _cmd_evaluate(args) -> int:
    from .harness import evaluate_model

    flat = _resolve(args)
    params, meta = load_checkpoint(args.load)
    # settings such as model.downsample_factor change no tensor shape
    saved = meta.get("config")
    if isinstance(saved, dict):
        differ = [f"{k} {saved[k]!r} vs {flat[k]!r}" for k in sorted(flat)
                  if k.startswith("model.") and k in saved and saved[k] != flat[k]]
        if differ:
            raise InvalidInputError(
                f"checkpoint {args.load} was trained with other model settings "
                f"(checkpoint vs config): {', '.join(differ)}"
            )
    dataset = _load_or_generate(args, flat)
    check_param_shapes(
        params,
        cfgmod.encoder_config(flat),
        dataset.config.feature_dim,
        dataset.vocab.extended_size,
        what=f"checkpoint {args.load}",
    )
    report = evaluate_model(params, dataset, args.split, flat)
    print(
        f"split={args.split} greedy_ter={report.greedy_ter:.4f} "
        f"prefix_ter={report.prefix_ter:.4f}"
    )
    print(CSV_HEADER)
    print(report.peak.csv_row())
    return 0


def _cmd_decode(args) -> int:
    dist = load_lattice_text(args.input)
    vocab = Vocabulary.generic(dist.extended_size - 1)
    if args.method == "greedy":
        labels, _ = greedy_decode(dist, vocab)
    else:
        labels = prefix_beam_decode(dist, vocab, args.beam)
    print(" ".join(vocab.token_of(v) for v in labels.labels))
    return 0


def _cmd_analyze(args) -> int:
    dist = load_lattice_text(args.input)
    vocab = Vocabulary.generic(dist.extended_size - 1)
    stats = peak_stats(dist, vocab)
    print(CSV_HEADER)
    print(stats.csv_row())
    if args.plot_data:
        save_plot_data(dist, vocab, args.plot_data)
        print(f"plot data: {args.plot_data}")
    return 0


def _cmd_gradcheck(args) -> int:
    # quick analytic-vs-numeric check across the loss stack
    from .encoder import EncoderConfig, backward

    rng = np.random.default_rng(0)
    vocab = Vocabulary.generic(3)
    y = LabelSequence((0, 1))
    cfg = EncoderConfig(
        layers=2, hidden_dim=6, context_radius=1,
        dropout_prob=0.0, layer_drop_prob=0.0,
    )
    params = init_params(cfg, 4, vocab.extended_size, rng)
    x = rng.standard_normal((7, 4))

    def loss_of(ps):
        logits, tape = forward(ps, x, cfg)
        res = ctc_loss_from_logits(logits, y, vocab)
        return res.loss, backward(ps, tape, res.grads[0])

    _, grads = loss_of(params)
    h, worst = 1e-5, 0.0
    names = params.names()
    for _ in range(max(1, args.coords)):
        name = names[int(rng.integers(len(names)))]
        idx = int(rng.integers(params[name].size))
        plus, minus = params.copy(), params.copy()
        plus.tensors[name].flat[idx] += h
        minus.tensors[name].flat[idx] -= h
        fd = (loss_of(plus)[0] - loss_of(minus)[0]) / (2 * h)
        an = grads[name].flat[idx]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    print(f"gradcheck: {max(1, args.coords)} coords, max rel err {worst:.3e}")
    if worst > 1e-4:
        print("gradcheck FAILED")
        return 1
    return 0


def _cmd_sweep(args) -> int:
    flat = _resolve(args)
    axes = args.axes.split(",") if args.axes else None
    seeds = tuple(int(s) for s in args.seeds.split(","))
    out = _check_folder("sweep CSV", args.out or _out_path(args, "sweep.csv"))
    rows = sweep(flat, axes=axes, seeds=seeds)
    write_sweep_csv(rows, out)
    for row in rows:
        print(
            f"{row['axis']}={row['value']} objective={row['objective']} "
            f"seed={row['seed']} test_ter={row['test_greedy_ter']:.4f}"
        )
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "decode": _cmd_decode,
    "analyze": _cmd_analyze,
    "gradcheck": _cmd_gradcheck,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CtcKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
