"""Command line front end: the ``gw`` executable.

Subcommands map one-to-one onto library operations: build a law, propagate
it, push it through the ratio estimator, compute metrics between stored
measures, simulate paths, run the verification suite, and run robustness
sweeps.  Outputs are CSV (default) or JSON; both carry a schema version,
and with ``--no-timestamp`` reruns are byte-identical for the same seed.
Each command computes all its values first and hands them to ``_emit``,
the one writer: it spells the schema names, adds the timestamp, opens
``--output`` (or takes stdout) and writes as it encodes: CSV rows one by
one, a JSON document in batches of encoder chunks with each row's object
made as the encoder reaches it, never the whole text or table at once.
Every flag a family parameter takes is named in ``FAMILIES``, and every
subcommand is one row of the table in ``_build_parser``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import os
import sys
from datetime import datetime, timezone
from typing import Iterable, Iterator, TextIO

from .engine import Propagator
from .errors import GwError, InvalidParameter, json_field
from .estimator import estimator_law
from .lab import (
    CLAIM_IDS,
    DEFAULT_REPLICATIONS,
    MODULUS_COLUMNS,
    ExperimentSpec,
    robustness_modulus,
    run_default_suite,
)
from .measures import DiscreteMeasure, tv_distance
from .metrics import MetricResult, bounded_lipschitz, prohorov
from .montecarlo import SimConfig, simulate_paths
from .offspring import (
    DEFAULT_TAIL_BUDGET,
    FAMILIES,
    TRUNCATED,
    FamilySpec,
    OffspringLaw,
    build,
    extinction_probability,
)

__all__ = ["main"]


# Numeric flags and the ``--weights`` list reach ``main`` as text, so that one
# that does not parse is a one-line ``InvalidParameter`` naming it.  Each
# family parameter in ``FAMILIES`` is a flag of its name.
NUMERIC_FLAGS = {
    name: float for names, _ in FAMILIES.values() for name in names if name != "weights"
} | {"budget": float} | dict.fromkeys(
    ("truncation", "n", "z0", "jobs", "seed", "replications", "n_max", "cap"), int) | {
    "weights": lambda text: [float(w) for w in text.split(",")]}


def _tv_metric(a: DiscreteMeasure, b: DiscreteMeasure) -> MetricResult:
    value, slack = tv_distance(a, b)
    return MetricResult(value=value, defect_slack=slack)


# ``gw metric --kind``: its choices, in this order, and the function each names.
METRICS = {"prohorov": prohorov, "bounded_lipschitz": bounded_lipschitz, "tv": _tv_metric}


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _open_output(args: argparse.Namespace) -> contextlib.AbstractContextManager[TextIO]:
    """``--output`` opened for writing, or stdout, which the ``with`` leaves open."""
    return open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout)


class _RowObjects(list):
    """``rows`` as a list that ``json``'s indenting encoder reads lazily.  It
    tests ``not lst`` before it iterates, so the first row is held and a table
    without rows is written ``[]``."""

    def __init__(self, rows: Iterator[dict]):
        self.rest = rows
        super().__init__(itertools.islice(rows, 1))

    def __iter__(self) -> Iterator[dict]:
        return itertools.chain(super().__iter__(), self.rest)


def _emit(
    args: argparse.Namespace,
    kind: str,
    doc: dict,
    columns: tuple[str, ...] = (),
    rows: Iterable[tuple] = (),
    comments: Iterable[str] = (),
) -> None:
    """Write one ``gw`` output: the only place that opens it and names its schema.

    JSON is ``doc``, whose values are JSON-ready, under schema ``gw-kind-1``
    with the rows as objects keyed by column, each made as the encoder
    reaches it.  The text is the chunks ``json.dumps`` would join, written
    in batches of 2**16 (a write per chunk is slower).  CSV is a ``# gw-csv-1
    kind`` header, the timestamp and ``comments`` as ``#`` lines, then the
    rows as they come; or, with no ``columns``, ``doc["value"]`` alone on one
    line.  Both carry the timestamp unless --no-timestamp.
    """
    stamp = {} if args.no_timestamp else {"timestamp": _timestamp()}
    if args.format == "json":
        doc |= {"schema": f"gw-{kind}-1", **stamp}
        if columns:
            doc |= {"columns": list(columns),
                    "rows": _RowObjects(dict(zip(columns, row)) for row in rows)}
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)
    with _open_output(args) as fh:
        if args.format == "json":
            for batch in iter(lambda: "".join(itertools.islice(chunks, 2**16)), ""):
                fh.write(batch)
            fh.write("\n")
        elif not columns:
            fh.write(f"{doc['value']:.12f}\n")
        else:
            header = [f"gw-csv-1 {kind}", *(f"{key} {t}" for key, t in stamp.items()), *comments]
            fh.writelines(f"# {line}\n" for line in header)
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)


def _measure_rows(measure: DiscreteMeasure) -> Iterator[tuple]:
    """One ``(atom, weight)`` row per atom, the atom written ``n/d`` (``n`` when whole)."""
    atoms = zip(measure.nums.tolist(), measure.dens.tolist(), measure.weights_array.tolist())
    return ((f"{n}/{d}" if d != 1 else str(n), w) for n, d, w in atoms)


def _law_from_args(args: argparse.Namespace) -> OffspringLaw:
    """Build the law named by ``--family`` and its parameter flags."""
    kwargs = {name: getattr(args, name) for name in FAMILIES[args.family][0]}
    for name, value in kwargs.items():
        if value is None:
            raise InvalidParameter(f"family {args.family!r} needs --{name}")
    if args.family in TRUNCATED:
        kwargs["truncation"] = args.truncation
    return build(FamilySpec(args.family, **kwargs), args.budget)


def _propagator_from_args(args: argparse.Namespace) -> Propagator:
    """Propagator of the ``--family`` law from ``--z0`` to horizon ``--n``."""
    law = _law_from_args(args)
    return Propagator(law, z0=args.z0, n_max=args.n, budget=args.budget)


def _read_json(path: str) -> object:
    """The JSON document in the file at ``path``.  Text that is not UTF-8, an
    integer past Python's digit limit or nesting past the recursion limit is
    an ``InvalidParameter``; malformed JSON stays a ``JSONDecodeError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:
        raise InvalidParameter(f"cannot read {path}: {exc}") from None


def _load_measure(path: str) -> DiscreteMeasure:
    data = _read_json(path)
    # Accept both a bare measure and a document that wraps one.
    if isinstance(data, dict) and "support" not in data:
        for key in ("measure", "law"):
            if key in data:
                data = data[key]
                break
    return DiscreteMeasure.from_json_dict(data)


# -- subcommand handlers -------------------------------------------------------


def _cmd_build_law(args: argparse.Namespace) -> int:
    law = _law_from_args(args)
    comments = [
        f"family {args.family}",
        f"mean {law.mean_m!r}",
        f"defect {law.measure.defect!r}",
    ]
    doc = {
        "family": law.family.to_json_dict() if law.family else None,
        "mean": law.mean_m,
        "defect": law.measure.defect,
        "measure": law.measure.to_json_dict(),
        "tail_bound": law.tail_bound.to_json_dict() if law.tail_bound else None,
    }
    _emit(args, "law", doc, ("point", "weight"), _measure_rows(law.measure), comments)
    return 0


def _cmd_law(args: argparse.Namespace) -> int:
    gen = _propagator_from_args(args).generation(args.n)
    comments = [f"n {args.n}", f"z0 {args.z0}", f"defect {gen.defect!r}"]
    doc = {"n": args.n, "z0": args.z0, "defect": gen.defect, "measure": gen.to_json_dict()}
    _emit(args, "generation", doc, ("point", "weight"), _measure_rows(gen), comments)
    return 0


def _cmd_joint(args: argparse.Namespace) -> int:
    joint = _propagator_from_args(args).joint(args.n)
    rows = zip(joint.prev.tolist(), joint.curr.tolist(), joint.probs.tolist())
    comments = [f"n {args.n}", f"z0 {args.z0}", f"defect {joint.defect!r}"]
    doc = {"n": args.n, "z0": args.z0, "defect": joint.defect}
    _emit(args, "joint", doc, ("prev", "curr", "prob"), rows, comments)
    return 0


def _cmd_estimator_law(args: argparse.Namespace) -> int:
    joint = _propagator_from_args(args).joint(args.n)
    e = estimator_law(joint, conditioned=args.conditioned)
    comments = [
        f"n {args.n}",
        f"z0 {args.z0}",
        f"conditioned {str(args.conditioned).lower()}",
        f"defect {e.law.defect!r}",
    ]
    _emit(args, "estimator-law", e.to_json_dict(), ("ratio", "weight"), _measure_rows(e.law),
          comments)
    return 0


def _cmd_extinction(args: argparse.Namespace) -> int:
    # Each ``ExtinctionResult`` field is a key of the document.
    _emit(args, "extinction", dict(vars(extinction_probability(_law_from_args(args)))))
    return 0


def _cmd_metric(args: argparse.Namespace) -> int:
    result = METRICS[args.kind](_load_measure(args.a), _load_measure(args.b))
    doc = {"kind": args.kind, "value": result.value, "slack": result.defect_slack}
    if args.format == "json":  # CSV leaves a Prohorov certificate unbuilt
        doc["certificate"] = result.to_json_dict()["certificate"]
    _emit(args, "metric", doc)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    law = _law_from_args(args)
    cfg = SimConfig(args.seed, args.replications, args.n_max, args.z0, args.cap)
    table = simulate_paths(law, cfg, jobs=args.jobs)
    # String keys, as JSON has them: the document lists levels "1", "10", "11", "2", ...
    excluded = {str(n): int(table.excluded[n]) for n in range(1, args.n_max + 1)}
    comments = [f"replications {args.replications}", f"seed {args.seed}"]
    comments += [f"excluded {n} {c}" for n, c in excluded.items() if c]
    doc = {
        "replications": args.replications,
        "seed": args.seed,
        "z0": args.z0,
        "cap": args.cap,
        "excluded": excluded,
    }
    _emit(args, "simulate", doc, ("level", "prev", "curr", "count"), table.rows(), comments)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    claims = None if args.suite == "all" else [args.suite]
    reports = run_default_suite(budget=args.budget, claims=claims)
    rows = [(r.claim_id, r.lhs, r.rhs, r.slack, str(r.passed).lower(), r.note) for r in reports]
    doc = {"reports": [r.to_json_dict() for r in reports]}
    _emit(args, "verify", doc, ("claim", "lhs", "rhs", "slack", "passed", "note"), rows)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_modulus(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.from_json_dict(_read_json(args.config))
    if args.output is None and spec.output:
        args.output = spec.output
    rows = robustness_modulus(spec, jobs=args.jobs)
    ordered = [tuple(row[col] for col in MODULUS_COLUMNS) for row in rows]
    _emit(args, "modulus", {}, MODULUS_COLUMNS, ordered)
    return 0


# -- parser --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the flags it reads: the shared output flags
    # and, from these parents, the ones its handler uses.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="write to this file instead of stdout")
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format (default csv)"
    )
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp so reruns are byte-identical",
    )

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--budget",
        default=DEFAULT_TAIL_BUDGET,
        help="truncation budget for built laws (default 1e-12)",
    )

    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument(
        "--jobs",
        default=os.cpu_count() or 1,
        help="worker processes for simulation (default: all cores); results do not depend on it",
    )

    family = argparse.ArgumentParser(add_help=False, parents=[budget])
    family.add_argument(
        "--family",
        required=True,
        choices=tuple(FAMILIES),
    )
    for name in dict.fromkeys(name for names, _ in FAMILIES.values() for name in names):
        users = " and ".join(f for f, (names, _) in FAMILIES.items() if name in names)
        family.add_argument(f"--{name}", help=f"{users} family parameter {name}")
    family.add_argument(
        "--truncation", default=None, help="explicit support cut for built laws"
    )

    horizon = argparse.ArgumentParser(add_help=False)
    horizon.add_argument("--n", required=True)
    horizon.add_argument("--z0", default=1)

    parser = argparse.ArgumentParser(
        prog="gw",
        description="Exact laws, metrics, and robustness sweeps for branching-process ratio estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # A row per subcommand: its name, parents, help, handler and own flags.
    commands = [
        ("build-law", [common, family], "build an offspring law", _cmd_build_law, {}),
        ("law", [common, family, horizon], "population-size law at generation n", _cmd_law, {}),
        ("joint", [common, family, horizon], "joint law of generations n-1 and n", _cmd_joint, {}),
        ("estimator-law", [common, family, horizon], "law of the generation ratio Z_n/Z_(n-1)",
         _cmd_estimator_law,
         {"--conditioned": dict(action="store_true",
                                help="condition on survival of generation n-1")}),
        ("extinction", [common, family], "extinction probability of the law", _cmd_extinction,
         {}),
        ("metric", [common], "distance between two stored measures", _cmd_metric,
         {"--kind": dict(choices=tuple(METRICS), default="prohorov"),
          "a": dict(help="measure JSON file"), "b": dict(help="measure JSON file")}),
        ("simulate", [common, family, jobs], "seeded path simulation, pair counts per level",
         _cmd_simulate,
         {"--seed": dict(default=0, help="base RNG seed (default 0)"),
          "--replications": dict(default=DEFAULT_REPLICATIONS),
          "--n-max": dict(required=True),
          "--z0": dict(default=1),
          "--cap": dict(default=SimConfig.cap, help="exclude paths beyond this size")}),
        ("verify", [common, budget], "run the inequality verification suite", _cmd_verify,
         {"--suite": dict(default="all", choices=("all",) + CLAIM_IDS,
                          help="which claim to check (default all)")}),
        ("modulus", [common, jobs], "robustness sweep from an experiment config", _cmd_modulus,
         {"--config": dict(required=True, help="experiment spec JSON file")}),
    ]
    for name, parents, help_text, func, own in commands:
        p = sub.add_parser(name, parents=parents, help=help_text)
        for flag, kwargs in own.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for name, convert in NUMERIC_FLAGS.items():
            if isinstance(getattr(args, name, None), str):
                setattr(args, name, json_field(vars(args), name, convert))
        return args.func(args)
    except (GwError, OSError, json.JSONDecodeError) as exc:
        line = json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
        )
        sys.stderr.write(line + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
