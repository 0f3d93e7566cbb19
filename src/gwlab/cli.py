"""Command line front end: the ``gw`` executable.

Subcommands map one-to-one onto library operations: build a law, propagate
it, push it through the ratio estimator, compute metrics between stored
measures, simulate paths, run the verification suite, and run robustness
sweeps.  Outputs are CSV (default) or JSON; both carry a schema version,
and with ``--no-timestamp`` reruns are byte-identical for the same seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone
from typing import Iterable

from .engine import Propagator
from .errors import GwError, InvalidParameter
from .estimator import estimator_law
from .lab import (
    CLAIM_IDS,
    MODULUS_COLUMNS,
    ExperimentSpec,
    robustness_modulus,
    run_default_suite,
    _jsonable,
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


def _default_budget() -> float:
    raw = os.environ.get("GW_BUDGET")
    if raw is None:
        return DEFAULT_TAIL_BUDGET
    try:
        return float(raw)
    except ValueError:
        raise InvalidParameter(f"GW_BUDGET is not a number: {raw!r}")


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_text(args: argparse.Namespace, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(
    args: argparse.Namespace,
    kind: str,
    columns: tuple[str, ...],
    rows: Iterable[tuple],
    comments: list[str] | None = None,
    extra: dict | None = None,
) -> None:
    """Write tuple rows in ``columns`` order as versioned CSV or JSON."""
    if args.format == "csv":
        buf = io.StringIO()
        buf.write(f"# gw-csv-1 {kind}\n")
        if not args.no_timestamp:
            buf.write(f"# timestamp {_timestamp()}\n")
        for line in comments or []:
            buf.write(f"# {line}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        _write_text(args, buf.getvalue())
        return
    doc = {
        "schema": f"gw-{kind}-1",
        "columns": list(columns),
        "rows": [dict(zip(columns, _jsonable(row))) for row in rows],
    }
    if extra:
        doc.update(_jsonable(extra))
    _emit_doc(args, doc)


def _emit_doc(args: argparse.Namespace, doc: dict) -> None:
    """Write a JSON document, timestamped unless --no-timestamp."""
    if not args.no_timestamp:
        doc["timestamp"] = _timestamp()
    _write_text(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _measure_rows(measure: DiscreteMeasure) -> list[tuple]:
    """One ``(atom, weight)`` row per atom, the atom written ``n/d`` (``n`` when whole)."""
    atoms = zip(measure.nums.tolist(), measure.dens.tolist(), measure.weights_array.tolist())
    return [(f"{n}/{d}" if d != 1 else str(n), w) for n, d, w in atoms]


def _law_from_args(args: argparse.Namespace) -> OffspringLaw:
    """Build the law named by ``--family`` and its parameter flags."""
    kwargs = {name: getattr(args, name) for name in FAMILIES[args.family][0]}
    for name, value in kwargs.items():
        if value is None:
            raise InvalidParameter(f"family {args.family!r} needs --{name}")
    if "weights" in kwargs:
        try:
            kwargs["weights"] = [float(tok) for tok in args.weights.split(",")]
        except ValueError:
            raise InvalidParameter(f"cannot parse weight list {args.weights!r}")
    if args.family in TRUNCATED:
        kwargs["truncation"] = args.truncation
    return build(FamilySpec(args.family, **kwargs), args.budget)


def _propagator_from_args(args: argparse.Namespace) -> Propagator:
    """Propagator of the ``--family`` law from ``--z0`` to horizon ``--n``."""
    law = _law_from_args(args)
    return Propagator(law, z0=args.z0, n_max=args.n, budget=args.budget)


def _load_measure(path: str) -> DiscreteMeasure:
    with open(path) as fh:
        data = json.load(fh)
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
    extra = {
        "family": law.family.to_json_dict() if law.family else None,
        "mean": law.mean_m,
        "defect": law.measure.defect,
        "measure": law.measure.to_json_dict(),
        "tail_bound": law.tail_bound.to_json_dict() if law.tail_bound else None,
    }
    _emit_rows(args, "law", ("point", "weight"), _measure_rows(law.measure), comments, extra)
    return 0


def _cmd_law(args: argparse.Namespace) -> int:
    gen = _propagator_from_args(args).generation(args.n)
    comments = [f"n {args.n}", f"z0 {args.z0}", f"defect {gen.defect!r}"]
    extra = {"n": args.n, "z0": args.z0, "defect": gen.defect, "measure": gen.to_json_dict()}
    _emit_rows(args, "generation", ("point", "weight"), _measure_rows(gen), comments, extra)
    return 0


def _cmd_joint(args: argparse.Namespace) -> int:
    joint = _propagator_from_args(args).joint(args.n)
    rows = zip(joint.prev.tolist(), joint.curr.tolist(), joint.probs.tolist())
    comments = [f"n {args.n}", f"z0 {args.z0}", f"defect {joint.defect!r}"]
    extra = {"n": args.n, "z0": args.z0, "defect": joint.defect}
    _emit_rows(args, "joint", ("prev", "curr", "prob"), rows, comments, extra)
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
    _emit_rows(
        args,
        "estimator-law",
        ("ratio", "weight"),
        _measure_rows(e.law),
        comments,
        e.to_json_dict(),
    )
    return 0


def _cmd_extinction(args: argparse.Namespace) -> int:
    result = extinction_probability(_law_from_args(args))
    if args.format == "json":
        doc = {
            "schema": "gw-extinction-1",
            "value": result.value,
            "supercritical": result.supercritical,
            "residual": result.residual,
            "iterations": result.iterations,
        }
        _emit_doc(args, doc)
    else:
        _write_text(args, f"{result.value:.12f}\n")
    return 0


def _cmd_metric(args: argparse.Namespace) -> int:
    a = _load_measure(args.a)
    b = _load_measure(args.b)
    if args.kind == "prohorov":
        result = prohorov(a, b)
    elif args.kind == "bounded_lipschitz":
        result = bounded_lipschitz(a, b)
    else:
        value, slack = tv_distance(a, b)
        result = MetricResult(value=value, defect_slack=slack)
    value, slack = result.value, result.defect_slack
    if args.format == "json":
        doc = {"schema": "gw-metric-1", "kind": args.kind, "value": value,
               "slack": slack,
               "certificate": result.to_json_dict()["certificate"]}
        _emit_doc(args, doc)
    else:
        _write_text(args, f"{value:.12f}\n")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    law = _law_from_args(args)
    cfg = SimConfig(args.seed, args.replications, args.n_max, args.z0, args.cap)
    table = simulate_paths(law, cfg, jobs=args.jobs)
    excluded = {n: int(table.excluded[n]) for n in range(1, args.n_max + 1)}
    comments = [f"replications {args.replications}", f"seed {args.seed}"]
    comments += [f"excluded {n} {c}" for n, c in excluded.items() if c]
    extra = {
        "replications": args.replications,
        "seed": args.seed,
        "z0": args.z0,
        "cap": args.cap,
        "excluded": excluded,
    }
    _emit_rows(
        args, "simulate", ("level", "prev", "curr", "count"), table.rows(), comments, extra
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    claims = None if args.suite == "all" else [args.suite]
    reports = run_default_suite(budget=args.budget, claims=claims)
    rows = [(r.claim_id, r.lhs, r.rhs, r.slack, str(r.passed).lower(), r.note) for r in reports]
    extra = {"reports": [r.to_json_dict() for r in reports]}
    _emit_rows(
        args,
        "verify",
        ("claim", "lhs", "rhs", "slack", "passed", "note"),
        rows,
        None,
        extra,
    )
    return 0 if all(r.passed for r in reports) else 1


def _cmd_modulus(args: argparse.Namespace) -> int:
    with open(args.config) as fh:
        spec = ExperimentSpec.from_json_dict(json.load(fh))
    if args.output is None and spec.output:
        args.output = spec.output
    rows = robustness_modulus(spec, jobs=args.jobs)
    ordered = [tuple(row[col] for col in MODULUS_COLUMNS) for row in rows]
    _emit_rows(args, "modulus", MODULUS_COLUMNS, ordered)
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
        type=float,
        default=None,
        help="truncation budget for built laws (default: GW_BUDGET or 1e-12)",
    )

    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes for simulation (default: all cores); results do not depend on it",
    )

    family = argparse.ArgumentParser(add_help=False, parents=[budget])
    family.add_argument(
        "--family",
        required=True,
        choices=tuple(FAMILIES),
    )
    family.add_argument("--p", type=float, default=None, help="binary/polynomial parameter")
    family.add_argument("--p0", type=float, default=None, help="three_point mass at 0")
    family.add_argument("--p2", type=float, default=None, help="three_point mass at 2")
    family.add_argument("--p3", type=float, default=None, help="three_point mass at 3")
    family.add_argument("--lam", type=float, default=None, help="poisson mean")
    family.add_argument(
        "--truncation", type=int, default=None, help="explicit support cut for built laws"
    )
    family.add_argument(
        "--weights", default=None, help="raw family: comma-separated masses at 0,1,2,..."
    )

    horizon = argparse.ArgumentParser(add_help=False)
    horizon.add_argument("--n", type=int, required=True)
    horizon.add_argument("--z0", type=int, default=1)

    parser = argparse.ArgumentParser(
        prog="gw",
        description="Exact laws, metrics, and robustness sweeps for branching-process ratio estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-law", parents=[common, family], help="build an offspring law")
    p.set_defaults(func=_cmd_build_law)

    p = sub.add_parser(
        "law", parents=[common, family, horizon], help="population-size law at generation n"
    )
    p.set_defaults(func=_cmd_law)

    p = sub.add_parser(
        "joint", parents=[common, family, horizon], help="joint law of generations n-1 and n"
    )
    p.set_defaults(func=_cmd_joint)

    p = sub.add_parser(
        "estimator-law",
        parents=[common, family, horizon],
        help="law of the generation ratio Z_n/Z_(n-1)",
    )
    p.add_argument(
        "--conditioned", action="store_true", help="condition on survival of generation n-1"
    )
    p.set_defaults(func=_cmd_estimator_law)

    p = sub.add_parser(
        "extinction", parents=[common, family], help="extinction probability of the law"
    )
    p.set_defaults(func=_cmd_extinction)

    p = sub.add_parser("metric", parents=[common], help="distance between two stored measures")
    p.add_argument("--kind", choices=("prohorov", "bounded_lipschitz", "tv"), default="prohorov")
    p.add_argument("a", help="measure JSON file")
    p.add_argument("b", help="measure JSON file")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser(
        "simulate",
        parents=[common, family, jobs],
        help="seeded path simulation, pair counts per level",
    )
    p.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    p.add_argument("--replications", type=int, default=1_000_000)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--z0", type=int, default=1)
    p.add_argument("--cap", type=int, default=10_000_000, help="exclude paths beyond this size")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "verify", parents=[common, budget], help="run the inequality verification suite"
    )
    p.add_argument(
        "--suite",
        default="all",
        choices=("all",) + CLAIM_IDS,
        help="which claim to check (default all)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "modulus", parents=[common, jobs], help="robustness sweep from an experiment config"
    )
    p.add_argument("--config", required=True, help="experiment spec JSON file")
    p.set_defaults(func=_cmd_modulus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if "budget" in args and args.budget is None:
            args.budget = _default_budget()
        return args.func(args)
    except (GwError, OSError, json.JSONDecodeError) as exc:
        line = json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
        )
        sys.stderr.write(line + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
