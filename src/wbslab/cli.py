"""Command-line entry point.

Subcommands mirror the library modules: ``schreier`` (unrank / rank /
count), ``cesaro certify``, ``metric validate``, ``pairs`` (find /
verify), ``holder`` (seminorm / bump), ``embed`` (holder / cb / linf),
``classify`` (calpha / cb / linf / ordinal) and ``experiment run``.
Everything prints JSON to stdout; ``--out`` additionally writes it to a
file.  Exit status is 0 iff every internal assertion held.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .classify import (
    FiniteMeasurePartition,
    classify_calpha,
    classify_cb,
    classify_c_of_ordinal,
    classify_linf,
    parse_ordinal,
)
from .embed import (
    FiniteSequence,
    distortion_report,
    embed_cb,
    embed_linf,
    structured_vectors,
)
from .errors import InvalidInputError, PairSearchFailure, WbsLabError
from .experiments import EXPERIMENT_NAMES, ExperimentConfig, run_experiment
from .holder import holder_norm, holder_seminorm, pair_bump, sup_norm, tent_bump
from .metric import (
    FiniteMetricSpace,
    SeparatedPairFamily,
    existing_file,
    find_pair_family,
    load_json,
    load_space,
    validate_metric,
    verify_pair_family,
)
from .schreier import (
    ENUMERATION_NAMES,
    SchreierSet,
    count_max_at_most,
    get_enumeration,
    unlimited_int_digits,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances
from .weaknull import SequenceOracle, Subsequence, certify_not_cesaro_null


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="seed recorded in outputs")
    parser.add_argument(
        "--enumeration",
        choices=list(ENUMERATION_NAMES),
        default="canonical",
        help="which enumeration of the maximal Schreier sets to use",
    )
    parser.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a tolerance (triangle_rel, float_slack, sandwich_rel)",
    )
    parser.add_argument("--out", type=Path, default=None, help="also write JSON here")


def _tolerances(args) -> Tolerances:
    overrides = {}
    for item in args.tolerance:
        if "=" not in item:
            raise WbsLabError(f"--tolerance expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        overrides[name.strip()] = float(value)
    return DEFAULT_TOLERANCES.with_overrides(**overrides)


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)


def _parse_int(value) -> int:
    """An integer of any length: unrank takes ranks of 10^5 digits."""
    try:
        with unlimited_int_digits():
            return int(value)
    except (TypeError, ValueError):
        raise InvalidInputError(f"expected a decimal integer, got {str(value)[:40]!r}") from None


def _parse_floats(values) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise InvalidInputError(f"expected a list of numbers, got {str(values)[:60]!r}") from None


def _parse_set(text: str) -> SchreierSet:
    text = text.strip()
    if text.startswith("["):
        values = json.loads(text)
    else:
        values = [p for p in text.split(",") if p.strip()]
    return SchreierSet.from_iterable(_parse_int(v) for v in values)


def _parse_vector(text: str, length: int, seed: int) -> list[FiniteSequence]:
    """A vector spec: 'random:SEED[:COUNT]', a file, or comma floats."""
    if text.startswith("random:"):
        parts = text.split(":")[1:]
        vec_seed = _parse_int(parts[0]) if parts and parts[0] else seed
        count = _parse_int(parts[1]) if len(parts) > 1 else 20
        if vec_seed < 0 or count < 0:
            raise InvalidInputError(f"random:SEED[:COUNT] needs non-negative values, got {text!r}")
        rng = np.random.default_rng(vec_seed)
        return [
            FiniteSequence(tuple(rng.uniform(-2.0, 2.0, size=length)))
            for _ in range(count)
        ]
    path = existing_file(text)
    values = json.loads(path.read_text()) if path else text.split(",")
    return [FiniteSequence(_parse_floats(values))]


# ---- subcommand handlers ---------------------------------------------------


def _cmd_schreier(args) -> int:
    enum = get_enumeration(args.enumeration)
    if args.action == "unrank":
        s = enum.unrank(_parse_int(args.value))
        _emit(args, {"rank": args.value, "set": s.to_json(), "enumeration": enum.name})
    elif args.action == "rank":
        s = _parse_set(args.value)
        rank = enum.rank_of(s)
        with unlimited_int_digits():
            text = str(rank)
        _emit(args, {"set": s.to_json(), "rank": text, "enumeration": enum.name})
    else:
        n = _parse_int(args.value)
        count = count_max_at_most(n)
        with unlimited_int_digits():
            text = str(count)
        _emit(args, {"n": n, "count_max_at_most": text})
    return 0


def _cmd_cesaro(args) -> int:
    path = existing_file(args.subsequence)
    if path:
        sub = Subsequence.from_terms(json.loads(path.read_text()))
    else:
        sub = Subsequence.parse(args.subsequence)
    oracle = SequenceOracle(args.enumeration)
    cert = certify_not_cesaro_null(sub, args.N, oracle=oracle)
    payload = cert.to_json()
    payload["rule"] = sub.description
    payload["seed"] = args.seed
    _emit(args, payload)
    return 0


def _cmd_metric_validate(args) -> int:
    data = load_json(args.space)
    if isinstance(data, dict) and "matrix" in data:
        report = validate_metric(data["matrix"], data.get("labels"), tolerances=_tolerances(args))
    else:
        space = FiniteMetricSpace.from_json(data)
        report = validate_metric(space.dist, space.labels, tolerances=_tolerances(args))
    _emit(args, report.to_json())
    return 0 if report.ok else 1


def _cmd_pairs(args) -> int:
    space = load_space(args.space)
    if args.action == "find":
        try:
            family = find_pair_family(space, args.K, args.count)
        except PairSearchFailure as exc:
            payload = exc.best.to_json()
            payload.update({"ok": False, "found": len(exc.best), "target": exc.target})
            _emit(args, payload)
            return 1
        payload = family.to_json()
        payload.update({"ok": True, "found": len(family), "target": args.count})
        _emit(args, payload)
        return 0
    family = SeparatedPairFamily.from_json(load_json(args.family))
    report = verify_pair_family(space, family)
    _emit(args, report.to_json())
    return 0 if report.ok else 1


def _cmd_holder(args) -> int:
    space = load_space(args.space)
    if args.action == "seminorm":
        from .holder import ScalarField

        values = load_json(args.field)
        if isinstance(values, dict):
            if "values" not in values:
                raise InvalidInputError('field JSON needs "values": [one number per point]')
            values = values["values"]
        f = ScalarField(space, values)
        _emit(
            args,
            {
                "alpha": args.alpha,
                "sup_norm": sup_norm(f),
                "seminorm": holder_seminorm(f, args.alpha),
                "holder_norm": holder_norm(f, args.alpha),
            },
        )
        return 0
    if args.kind == "pair":
        x, y = args.pair.split(",")
        f = pair_bump(space, (x.strip(), y.strip()), args.K, args.alpha)
    else:
        f = tent_bump(space, args.center, args.epsilon)
    payload = f.to_json()
    payload["support"] = list(f.support())
    _emit(args, payload)
    return 0


def _cmd_embed(args) -> int:
    tolerances = _tolerances(args)
    if args.report is not None and args.out is None:
        args.out = args.report
    if args.target == "holder":
        space = load_space(args.space)
        family = SeparatedPairFamily.from_json(load_json(args.family))
        vectors = structured_vectors(len(family))
        vectors += _parse_vector(args.vector, len(family), args.seed)
        report = distortion_report(space, family, args.alpha, vectors, tolerances=tolerances)
        payload = report.to_json()
        payload["alpha"] = args.alpha
        payload["seed"] = args.seed
        _emit(args, payload)
        return 0
    if args.target == "cb":
        space = load_space(args.space)
        centers = [c.strip() for c in args.centers.split(",")]
        radii = list(_parse_floats(args.radii.split(",")))
        vec = _parse_vector(args.vector, len(centers), args.seed)[0]
        image = embed_cb(vec, space, centers, radii)
        exact = sup_norm(image) == vec.sup_value
        _emit(
            args,
            {
                "vector_sup": vec.sup_value,
                "image_sup": sup_norm(image),
                "isometric": exact,
                "values": image.values.tolist(),
            },
        )
        return 0 if exact else 1
    masses = list(_parse_floats(args.masses.split(",")))
    vec = _parse_vector(args.vector, len(masses), args.seed)[0]
    step = embed_linf(vec, masses)
    exact = step.ess_sup == vec.sup_value
    payload = step.to_json()
    payload.update({"vector_sup": vec.sup_value, "isometric": exact})
    _emit(args, payload)
    return 0 if exact else 1


def _cmd_classify(args) -> int:
    ordinal = args.ordinal if args.ordinal is not None else args.ordinal_flag
    if args.family == "calpha":
        size = math.inf if args.assume == "infinite" else args.points
        if size is None:
            raise WbsLabError("classify calpha needs --points N or --assume infinite")
        verdict = classify_calpha(size)
    elif args.family == "ordinal":
        if ordinal is None:
            raise WbsLabError("classify ordinal needs an ordinal expression")
        verdict = classify_c_of_ordinal(parse_ordinal(ordinal))
    elif args.family == "cb":
        if args.assume == "noncompact":
            verdict = classify_cb(assume="noncompact")
        else:
            if ordinal is None:
                raise WbsLabError("classify cb needs --ordinal EXPR or --assume noncompact")
            verdict = classify_cb(ordinal=parse_ordinal(ordinal))
    else:
        masses = list(_parse_floats(args.masses.split(",")))
        partition = FiniteMeasurePartition(tuple(masses), is_terminal=not args.more_sets)
        verdict = classify_linf(partition)
    _emit(args, verdict.to_json())
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig(
        seed=args.seed,
        enumeration=args.enumeration,
        tolerances=_tolerances(args),
        out_dir=args.report_dir,
    )
    names = list(EXPERIMENT_NAMES) if args.name == "all" else [args.name]
    all_ok = True
    summaries = []
    for name in names:
        result = run_experiment(name, config)
        all_ok &= result.ok
        summaries.append(
            {
                "experiment": name,
                "ok": result.ok,
                "rows": len(result.rows),
                "failures": result.failures,
                "artifacts": result.artifacts,
            }
        )
    _emit(args, {"ok": all_ok, "suites": summaries})
    return 0 if all_ok else 1


# ---- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wbslab",
        description=(
            "Construct and certify the combinatorial and metric witnesses "
            "behind weak Banach-Saks failures, at desk scale."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schreier", help="enumerate maximal Schreier sets")
    p.add_argument("action", choices=["unrank", "rank", "count"])
    p.add_argument("value", help="a rank, a set like 3,4,5 or [3,4,5], or a bound n")
    _common_flags(p)
    p.set_defaults(handler=_cmd_schreier)

    p = sub.add_parser("cesaro", help="Cesaro-mean certificates")
    p.add_argument("action", choices=["certify"])
    p.add_argument("--subsequence", required=True, help="rule string, term list, or JSON file")
    p.add_argument("--N", type=int, required=True)
    _common_flags(p)
    p.set_defaults(handler=_cmd_cesaro)

    p = sub.add_parser("metric", help="validate a distance matrix")
    p.add_argument("action", choices=["validate"])
    p.add_argument("space", help="JSON file with matrix/labels or points/metric")
    _common_flags(p)
    p.set_defaults(handler=_cmd_metric_validate)

    p = sub.add_parser("pairs", help="separated pair families")
    p.add_argument("action", choices=["find", "verify"])
    p.add_argument("space")
    p.add_argument("family", nargs="?", help="family JSON file (verify)")
    p.add_argument("--K", type=float, default=0.5)
    p.add_argument("--count", type=int, default=1)
    _common_flags(p)
    p.set_defaults(handler=_cmd_pairs)

    p = sub.add_parser("holder", help="norms and bump fields")
    p.add_argument("action", choices=["seminorm", "bump"])
    p.add_argument("space")
    p.add_argument("field", nargs="?", help="field JSON file (seminorm)")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--kind", choices=["pair", "tent"], default="pair")
    p.add_argument("--pair", help="x,y labels for a pair bump")
    p.add_argument("--K", type=float, default=0.5)
    p.add_argument("--center", help="center label for a tent bump")
    p.add_argument("--epsilon", type=float, default=1.0)
    _common_flags(p)
    p.set_defaults(handler=_cmd_holder)

    p = sub.add_parser("embed", help="embedding operators and their bounds")
    p.add_argument("target", choices=["holder", "cb", "linf"])
    p.add_argument("space", nargs="?", help="space JSON (holder/cb)")
    p.add_argument("family", nargs="?", help="family JSON (holder)")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--vector", default="random:0", help="file, comma floats, or random:SEED[:COUNT]")
    p.add_argument("--centers", help="comma labels (cb)")
    p.add_argument("--radii", help="comma radii (cb)")
    p.add_argument("--masses", help="comma masses (linf)")
    p.add_argument("--report", type=Path, default=None, help="write the report JSON here")
    _common_flags(p)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("classify", help="weak Banach-Saks verdicts")
    p.add_argument("family", choices=["calpha", "cb", "linf", "ordinal"])
    p.add_argument("ordinal", nargs="?", help="ordinal expression (ordinal/cb)")
    p.add_argument("--points", type=int, help="point count (calpha)")
    p.add_argument("--assume", choices=["finite", "infinite", "noncompact"])
    p.add_argument("--ordinal", dest="ordinal_flag", help="ordinal expression (cb)")
    p.add_argument("--masses", help="comma cell masses (linf)")
    p.add_argument(
        "--more-sets",
        action="store_true",
        help="linf: assert infinitely many further disjoint positive-measure sets",
    )
    _common_flags(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("experiment", help="run a certified suite")
    p.add_argument("action", choices=["run"])
    p.add_argument("name", choices=list(EXPERIMENT_NAMES) + ["all"])
    p.add_argument("--report-dir", type=Path, default=None, help="write JSON + CSV here")
    _common_flags(p)
    p.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (WbsLabError, json.JSONDecodeError) as exc:
        witness = getattr(exc, "witness", None)
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if witness is not None and hasattr(witness, "to_json"):
            payload["witness"] = witness.to_json()
        print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
