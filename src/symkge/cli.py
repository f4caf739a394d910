"""Command-line interface.

Subcommands: mine, stats, train, eval, probe, ttest, experiment.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import __version__
from .artifact import write_atomic
from .config import OPTION_FLAGS, TrainConfig, parse_config, read_config_file
from .errors import (
    BadValueError,
    DataError,
    NumericError,
    SymkgeError,
    UsageError,
)
from .evaluation import ProbeConfig, evaluate_split, probe_report, students_t_test, train_probe
from .experiment import ABLATIONS, ExperimentSpec, report_to_json, run_experiment
from .graph import load_dataset, read_tsv, text_lines
from .mining import MAX_HOP_BOUND, load_dict, mine_positive_dict, save_dict, structure_stats
from .model import load_checkpoint, save_checkpoint
from .training import train


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage problems on exit code 1
        raise UsageError(message)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _build_parser() -> _Parser:
    parser = _Parser(prog="symkge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"symkge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine the positive dictionary from a train split")
    p.add_argument("--train", required=True)
    p.add_argument("--k", type=int, required=True, help=f"hop bound, 1..{MAX_HOP_BOUND}")
    p.add_argument("--out", required=True, help="output dictionary path")
    p.add_argument("--max-degree", type=int, default=None,
                   help="skip pivots with more signed edges than this (approximation)")
    _common_flags(p)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("stats", help="count structures per hop length")
    p.add_argument("--train", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None)
    _common_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train embeddings")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", default=None)
    p.add_argument("--dict", dest="dict_path", default=None,
                   help="positive dictionary; omit to train the plain task objective")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    _train_override_flags(p)
    _common_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="filtered link-prediction metrics")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--valid", default=None)
    p.add_argument("--test", required=True)
    _common_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("probe", help="linear-probe entity classification")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--labels", required=True, help="entity-label TAB class-label")
    p.add_argument("--test-labels", default=None, help="held-out labels; defaults to --labels")
    p.add_argument("--train", default=None,
                   help="triple file to map entity labels to ids; omit if labels are integer ids")
    p.add_argument("--valid", default=None)
    p.add_argument("--steps", type=int, default=ProbeConfig.steps)
    p.add_argument("--lr", type=float, default=ProbeConfig.lr)
    _common_flags(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("ttest", help="two-sample Student's t-test")
    p.add_argument("--a", required=True, help="file of numbers (comma/whitespace separated)")
    p.add_argument("--b", required=True)
    _common_flags(p)
    p.set_defaults(func=cmd_ttest)

    p = sub.add_parser("experiment", help="multi-run comparison with/without the alignment loss")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", default=None)
    p.add_argument("--test", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--runs", type=int, default=ExperimentSpec.runs)
    p.add_argument("--ablation", choices=ABLATIONS, default=ExperimentSpec.ablation)
    p.add_argument("--base-seed", type=int, default=ExperimentSpec.base_seed)
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.add_argument("--threads", type=int, default=1,
                   help="run training runs in this many processes (same report)")
    _train_override_flags(p)
    _common_flags(p)
    p.set_defaults(func=cmd_experiment)

    return parser


def _train_override_flags(parser: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(TrainConfig):  # config.parse_config parses each value
        parser.add_argument(OPTION_FLAGS[f.name], dest=f.name, default=None,
                            action="store_true" if type(f.default) is bool else "store")


def _config_from_args(args) -> TrainConfig:
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)}
    return parse_config(args.config, overrides)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _emit(args, report: dict[str, object], lines: list[str], encode=None) -> int:
    """Print a subcommand's result and return exit code 0.

    Under --json, stdout gets one JSON document: encode(report) when given,
    else the report on one line. Otherwise it gets the text lines.
    """
    if args.json:
        sys.stdout.write(encode(report) if encode else json.dumps(report, sort_keys=True) + "\n")
    else:
        for line in lines:
            print(line)
    return 0


def _check_out_dir(path: str) -> None:
    """Refuse an output path that cannot name a file, before any data is read."""
    if not os.path.basename(path) or os.path.isdir(path):
        raise DataError(f"{path}: --out must name a file (not a directory, not empty)")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise DataError(f"{path}: no directory {parent} to write into")


def cmd_mine(args) -> int:
    _check_out_dir(args.out)
    graph = load_dataset(args.train).graph
    started = time.perf_counter()
    pos, structures = mine_positive_dict(graph, args.k, max_degree=args.max_degree)
    elapsed = time.perf_counter() - started
    save_dict(pos, args.out)
    _say(args, f"wrote {args.out}")
    pairs = len(pos.indices)
    report = {"entities": graph.entity_count, "k": args.k, "directed_pairs": pairs,
              "structures": len(structures), "seconds": round(elapsed, 3), "out": args.out}
    return _emit(args, report, [
        f"mined {len(structures)} structures, {pairs} directed pairs "
        f"over {graph.entity_count} entities (k<={args.k}) in {elapsed:.2f}s",
    ])


def cmd_stats(args) -> int:
    graph = load_dataset(args.train).graph
    started = time.perf_counter()
    stats = structure_stats(graph, args.k, max_degree=args.max_degree)
    elapsed = time.perf_counter() - started
    lines = [f"{'k':>3} {'symmetric':>12} {'total':>12} {'proportion':>10}"]
    for h in stats.per_hop:
        prop = f"{h.proportion:.4f}" if h.proportion is not None else "-"
        lines.append(f"{h.k:>3} {h.rs_count:>12} {h.total_count:>12} {prop:>10}")
    lines.append(f"elapsed: {elapsed:.2f}s")
    per_hop = [{**dataclasses.asdict(h), "proportion": h.proportion} for h in stats.per_hop]
    return _emit(args, {"per_hop": per_hop, "seconds": round(elapsed, 3)}, lines)


def cmd_train(args) -> int:
    _check_out_dir(args.out)
    cfg = _config_from_args(args)
    dataset = load_dataset(args.train, args.valid)
    pos = load_dict(args.dict_path) if args.dict_path else None

    def log_fn(epoch, b):
        print(f"epoch {epoch} task {b.task:.6f} contrastive {b.contrastive:.6f} "
              f"total {b.total:.6f}")

    result = train(dataset.graph, pos, cfg, log_fn=None if args.quiet or args.json else log_fn)
    save_checkpoint(result.table, cfg.scorer, args.out)
    _say(args, f"wrote {args.out}")
    epochs = [dataclasses.asdict(b) for b in result.epoch_log]
    return _emit(args, {"epochs": epochs, "out": args.out}, [])


# Text labels of RankingReport.metrics() keys.
_METRIC_NAMES = {"mrr": "MRR", "hits1": "Hit@1", "hits3": "Hit@3", "hits10": "Hit@10"}


def cmd_eval(args) -> int:
    table, kind = load_checkpoint(args.ckpt)
    dataset = load_dataset(args.train, args.valid, args.test)
    known = dataset.train + dataset.valid + dataset.test
    report = evaluate_split(table, kind, dataset.test, known)
    metrics = report.metrics()
    return _emit(args, {**metrics, "n_queries": report.n_queries},
                 [f"{_METRIC_NAMES[key]:<6} {value:.4f}" for key, value in metrics.items()])


def _read_labeled(path, entity_ids, entity_count: int) -> list[tuple[int, str]]:
    rows: list[tuple[int, str]] = []
    for lineno, (entity_label, class_label) in zip(*read_tsv(path, ("entity", "class"),
                                                             BadValueError)):
        if entity_ids is not None:
            if entity_label not in entity_ids:
                raise BadValueError(f"{path}:{lineno}: unknown entity {entity_label!r}")
            eid = entity_ids[entity_label]
        else:
            try:
                eid = int(entity_label)
            except ValueError:
                raise BadValueError(
                    f"{path}:{lineno}: entity must be an integer id when no --train "
                    f"file is given"
                ) from None
            if not 0 <= eid < entity_count:
                raise BadValueError(f"{path}:{lineno}: entity id {eid} outside [0, {entity_count})")
        rows.append((eid, class_label))
    return rows


def cmd_probe(args) -> int:
    if args.valid is not None and not args.train:
        raise UsageError("--valid only extends --train's label map; add --train or drop --valid")
    table, _ = load_checkpoint(args.ckpt)
    entity_ids = None
    if args.train:
        dataset = load_dataset(args.train, args.valid)
        entity_ids = dataset.labels.entity_ids
    train_rows = _read_labeled(args.labels, entity_ids, table.entity_count)
    test_rows = (_read_labeled(args.test_labels, entity_ids, table.entity_count)
                 if args.test_labels else train_rows)

    class_names = sorted({c for _, c in train_rows} | {c for _, c in test_rows})
    class_id = {name: i for i, name in enumerate(class_names)}
    train_labeled = [(e, class_id[c]) for e, c in train_rows]
    test_labeled = [(e, class_id[c]) for e, c in test_rows]

    weights = train_probe(table, train_labeled, ProbeConfig(lr=args.lr, steps=args.steps))
    report = probe_report(weights, table, test_labeled)
    per_class = {class_names[cls]: {"correct": correct, "total": total}
                 for cls, (correct, total) in report.per_class.items()}
    lines = [f"accuracy {report.accuracy:.4f}"]
    lines += [f"  class {name}: {c['correct']}/{c['total']}" for name, c in per_class.items()]
    return _emit(args, {"accuracy": report.accuracy, "per_class": per_class}, lines)


def _read_numbers(path) -> list[float]:
    try:
        return [float(tok) for tok in text_lines(path, BadValueError).replace(",", " ").split()]
    except ValueError as exc:
        raise BadValueError(f"{path}: {exc}") from None


def cmd_ttest(args) -> int:
    report = students_t_test(_read_numbers(args.a), _read_numbers(args.b))
    return _emit(args, {"t": report.t_statistic, "p": report.p_value,
                        "df": report.degrees_of_freedom}, [
        f"t = {report.t_statistic:.6f}",
        f"p = {report.p_value:.6g} (two-sided, df={report.degrees_of_freedom})",
    ])


def cmd_experiment(args) -> int:
    if args.seed is not None or "seed" in read_config_file(args.config):
        raise UsageError("--seed or a config seed is refused: run i uses seed --base-seed + i")
    if args.out is not None:
        _check_out_dir(args.out)
    cfg = _config_from_args(args)
    spec = ExperimentSpec(
        train_path=args.train,
        valid_path=args.valid,
        test_path=args.test,
        config=cfg,
        ablation=args.ablation,
        runs=args.runs,
        base_seed=args.base_seed,
    )
    report = run_experiment(spec, workers=args.threads, progress=lambda m: _say(args, m))
    if args.out is not None:
        write_atomic(args.out, report_to_json(report).encode("utf-8"))
        _say(args, f"wrote {args.out}")
    return _emit(args, report, _experiment_lines(report), encode=report_to_json)


def _experiment_lines(report) -> list[str]:
    def cells(metrics) -> str:
        return " ".join(f"{metrics[key]:>8.4f}" for key in _METRIC_NAMES)

    header = f"  {'run':>4} {'seed':>6} " + " ".join(f"{n:>8}" for n in _METRIC_NAMES.values())
    lines = [f"ablation={report['ablation']} runs={report['runs']} base_seed={report['base_seed']}"]
    for arm_name, arm in report["arms"].items():
        lines += [f"[{arm_name}]", header]
        lines += [f"  {i:>4} {entry['seed']:>6} " + cells(entry)
                  for i, entry in enumerate(arm["metrics"], start=1)]
        lines.append("  mean        " + cells(arm["mean"]))
    if report["ttest_mrr"]:
        t = report["ttest_mrr"]
        lines.append(f"t-test on MRR: t={t['t']:.4f} p={t['p']:.6g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    where = "symkge"
    try:
        args = _build_parser().parse_args(argv)
        where = f"symkge {args.command}"
        return args.func(args)
    except UsageError as exc:
        print(f"{where}: usage error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"{where}: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"{where}: data error: {exc}", file=sys.stderr)
        return 2
    except SymkgeError as exc:
        print(f"{where}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
