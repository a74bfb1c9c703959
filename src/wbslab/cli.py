"""Command-line entry point.

Subcommands mirror the library modules: ``schreier`` (unrank / rank /
count), ``cesaro certify``, ``metric validate``, ``pairs`` (find /
verify), ``holder`` (seminorm / bump), ``embed`` (holder / cb / linf),
``classify`` (calpha / cb / linf / ordinal) and ``experiment run``.
Each action has its own parser, which declares only the arguments its
handler reads and requires those it cannot run without.  Everything
prints JSON to stdout; ``--out`` additionally writes it to a file.  Exit
status is 0 iff every internal assertion held; every error, usage errors
included, is a JSON object on stderr with exit status 2.

Each handler imports the modules it calls, so the exact actions
(``schreier``, ``cesaro``, ``classify``) and every usage error run
without loading numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterator
from pathlib import Path

from .errors import InvalidInputError, WbsLabError
from .inputs import (
    EXPERIMENT_NAMES, existing_file, json_type, load_json, parse_floats, parse_int, parse_json, to_decimal,
)
from .schreier import ENUMERATION_NAMES, SchreierSet, count_max_at_most, get_enumeration


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so main reports them as JSON like every other."""

    def error(self, message: str):
        raise InvalidInputError(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        """An action's parser reports its own stray arguments, naming the action."""
        namespace, extras = super().parse_known_args(args, namespace)
        if extras and self.get_default("handler") is not None:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _emit(args, payload: dict, ok: bool = True) -> int:
    """Prints the JSON after writing --out, so a path it cannot write prints nothing."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out is not None:
        try:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(text)
        except OSError as exc:
            raise InvalidInputError(f"cannot write --out: {exc}") from None
    print(text)
    return 0 if ok else 1


def _label_pair(text: str) -> tuple[str, str]:
    labels = tuple(label.strip() for label in text.split(","))
    if len(labels) != 2:
        raise argparse.ArgumentTypeError(f"expected two labels X,Y, got {text!r}")
    return labels


def _parse_set(text: str) -> SchreierSet:
    text = text.strip()
    if text.startswith("["):
        values = parse_json(text)
    else:
        values = [p for p in text.split(",") if p.strip()]
    return SchreierSet.from_iterable(values)


def _parse_vectors(text: str, length: int, seed: int) -> Iterator:
    """A vector spec: 'random:SEED[:COUNT]', a file, or comma floats; drawn as consumed."""
    import numpy as np

    from .embed import FiniteSequence

    if text.startswith("random:"):
        parts = text.split(":")[1:]
        vec_seed = parse_int(parts[0]) if parts and parts[0] else seed
        count = parse_int(parts[1]) if len(parts) > 1 else 20
        if vec_seed < 0 or count < 1:
            raise InvalidInputError(f"random:SEED[:COUNT] needs SEED >= 0 and COUNT >= 1: {text!r}")
        rng = np.random.default_rng(vec_seed)
        for _ in range(count):
            yield FiniteSequence(tuple(rng.uniform(-2.0, 2.0, size=length)))
        return
    path = existing_file(text)
    values = load_json(path) if path else text.split(",")
    yield FiniteSequence(values)


# ---- action handlers -------------------------------------------------------


def _cmd_unrank(args) -> int:
    enum = get_enumeration(args.enumeration)
    s = enum.unrank(parse_int(args.rank))
    return _emit(args, {"rank": args.rank, "set": s.to_json(), "enumeration": enum.name})


def _cmd_rank(args) -> int:
    enum = get_enumeration(args.enumeration)
    s = _parse_set(args.set)
    rank = to_decimal(enum.rank_of(s))
    return _emit(args, {"set": s.to_json(), "rank": rank, "enumeration": enum.name})


def _cmd_count(args) -> int:
    n = parse_int(args.n)
    count = to_decimal(count_max_at_most(n))
    return _emit(args, {"n": n, "count_max_at_most": count})


def _cmd_certify(args) -> int:
    from .weaknull import SequenceOracle, Subsequence, certify_not_cesaro_null

    path = existing_file(args.subsequence)
    if path:
        terms = load_json(path)
        if not isinstance(terms, list):
            kind = json_type(terms)
            raise InvalidInputError(f"a term file must hold a JSON array of integers, got JSON {kind}")
        sub = Subsequence.from_terms(terms)
    else:
        sub = Subsequence.parse(args.subsequence)
    cert = certify_not_cesaro_null(sub, args.N, oracle=SequenceOracle(args.enumeration))
    payload = cert.to_json()
    payload.update({"rule": sub.description, "seed": args.seed})
    return _emit(args, payload)


def _cmd_validate(args) -> int:
    from .metric import space_input, validate_metric

    report = validate_metric(*space_input(load_json(args.space)))
    return _emit(args, report.to_json(), report.ok)


def _cmd_pairs_find(args) -> int:
    from .metric import find_pair_family, load_space

    family = find_pair_family(load_space(args.space), args.K, args.count)
    ok = len(family) == args.count
    payload = family.to_json()
    payload.update({"ok": ok, "found": len(family), "target": args.count})
    return _emit(args, payload, ok)


def _cmd_pairs_verify(args) -> int:
    from .metric import SeparatedPairFamily, load_space, verify_pair_family

    space = load_space(args.space)
    family = SeparatedPairFamily.from_json(load_json(args.family))
    report = verify_pair_family(space, family)
    return _emit(args, report.to_json(), report.ok)


def _cmd_seminorm(args) -> int:
    from .holder import ScalarField, holder_seminorm, sup_norm
    from .metric import load_space

    space = load_space(args.space)
    values = load_json(args.field)
    if isinstance(values, dict):
        if "values" not in values:
            raise InvalidInputError('field JSON needs "values": [one number per point]')
        values = values["values"]
    f = ScalarField(space, values)
    norms = {"sup_norm": sup_norm(f), "seminorm": holder_seminorm(f, args.alpha)}
    norm = norms["sup_norm"] + norms["seminorm"]  # holder_norm's sum, without a second scan
    if not math.isfinite(norm):  # the seminorm or the sum overflowed
        raise InvalidInputError(f"the Holder norm overflows the float range: {norm}")
    return _emit(args, {"alpha": args.alpha, "holder_norm": norm, **norms})


def _cmd_bump(args) -> int:
    from .holder import pair_bump, tent_bump
    from .metric import load_space

    space = load_space(args.space)
    if args.kind == "pair":
        if args.pair is None:
            raise InvalidInputError("holder bump --kind pair needs --pair X,Y")
        f = pair_bump(space, args.pair, args.K, args.alpha)
    else:
        if args.center is None:
            raise InvalidInputError("holder bump --kind tent needs --center LABEL")
        f = tent_bump(space, args.center, args.epsilon)
    payload = f.to_json()
    payload["support"] = list(f.support())
    return _emit(args, payload)


def _cmd_embed_holder(args) -> int:
    from .embed import distortion_report, structured_vectors
    from .metric import SeparatedPairFamily, load_space

    space = load_space(args.space)
    family = SeparatedPairFamily.from_json(load_json(args.family))
    vectors = structured_vectors(len(family)) + list(_parse_vectors(args.vector, len(family), args.seed))
    report = distortion_report(space, family, args.alpha, vectors)
    payload = report.to_json()
    payload.update({"alpha": args.alpha, "seed": args.seed})
    return _emit(args, payload)


def _cmd_embed_cb(args) -> int:
    from .embed import embed_cb
    from .holder import sup_norm
    from .metric import load_space

    space = load_space(args.space)
    centers = [c.strip() for c in args.centers.split(",")]
    radii = list(parse_floats(args.radii.split(",")))
    vec = next(_parse_vectors(args.vector, len(centers), args.seed))
    image = embed_cb(vec, space, centers, radii)
    image_sup = sup_norm(image)
    exact = image_sup == vec.sup_value
    payload = {"vector_sup": vec.sup_value, "image_sup": image_sup, "isometric": exact}
    return _emit(args, {**payload, "values": image.values.tolist()}, exact)


def _cmd_embed_linf(args) -> int:
    from .embed import embed_linf

    masses = list(parse_floats(args.masses.split(",")))
    vec = next(_parse_vectors(args.vector, len(masses), args.seed))
    step = embed_linf(vec, masses)
    exact = step.ess_sup == vec.sup_value
    payload = step.to_json()
    payload.update({"vector_sup": vec.sup_value, "isometric": exact})
    return _emit(args, payload, exact)


def _cmd_classify_calpha(args) -> int:
    from .classify import classify_calpha

    if args.assume is None and args.points is None:
        raise WbsLabError("classify calpha needs --points N or --assume infinite")
    verdict = classify_calpha(math.inf if args.assume == "infinite" else args.points)
    return _emit(args, verdict.to_json())


def _cmd_classify_cb(args) -> int:
    from .classify import classify_cb, parse_ordinal

    if args.assume == "noncompact":
        verdict = classify_cb(assume="noncompact")
    elif args.ordinal is None:
        raise WbsLabError("classify cb needs --ordinal EXPR or --assume noncompact")
    else:
        verdict = classify_cb(ordinal=parse_ordinal(args.ordinal))
    return _emit(args, verdict.to_json())


def _cmd_classify_linf(args) -> int:
    from .classify import FiniteMeasurePartition, classify_linf

    masses = parse_floats(args.masses.split(","))
    verdict = classify_linf(FiniteMeasurePartition(masses, is_terminal=not args.more_sets))
    return _emit(args, verdict.to_json())


def _cmd_classify_ordinal(args) -> int:
    from .classify import classify_c_of_ordinal, parse_ordinal

    return _emit(args, classify_c_of_ordinal(parse_ordinal(args.expr)).to_json())


def _cmd_experiment(args) -> int:
    from .experiments import ExperimentConfig, run_experiment

    config = ExperimentConfig(seed=args.seed, enumeration=args.enumeration, out_dir=args.report_dir)
    summaries = []
    for name in list(EXPERIMENT_NAMES) if args.name == "all" else [args.name]:
        try:
            result = run_experiment(name, config)
        except OSError as exc:
            raise InvalidInputError(f"cannot write --report-dir: {exc}") from None
        summaries.append(
            {
                "experiment": name,
                "ok": result.ok,
                "rows": len(result.rows),
                "failures": result.failures,
                "artifacts": result.artifacts,
            }
        )
    all_ok = all(summary["ok"] for summary in summaries)
    return _emit(args, {"ok": all_ok, "suites": summaries}, all_ok)


# ---- parser ----------------------------------------------------------------

# Arguments that several actions take; each action names the ones it reads.
_SHARED = {
    "space": dict(help="metric space JSON: a file or the text"),
    "family": dict(help="pair family JSON: a file or the text"),
    "--seed": dict(type=int, default=0, help="seed of random inputs, recorded in outputs"),
    "--enumeration": dict(choices=ENUMERATION_NAMES, default="canonical", help="Schreier order"),
    "--alpha": dict(type=float, default=1.0, help="Holder exponent"),
    "--K": dict(type=float, default=0.5, help="separation constant"),
    "--vector": dict(default="random:0", help="file, comma floats, or random:SEED[:COUNT]"),
    "--masses": dict(required=True, help="comma cell masses"),
}


def _action(actions, name: str, handler, help: str, *shared: str) -> argparse.ArgumentParser:
    """One action's parser: its handler, the shared arguments it reads, --out."""
    p = actions.add_parser(name, help=help, description=help)
    p.set_defaults(handler=handler)
    for arg in shared:
        p.add_argument(arg, **_SHARED[arg])
    p.add_argument("--out", type=Path, default=None, help="also write the JSON here")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wbslab",
        description=(
            "Construct and certify the combinatorial and metric witnesses "
            "behind weak Banach-Saks failures, at desk scale."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str):
        return commands.add_parser(name, help=help).add_subparsers(dest="action", required=True)

    schreier = command("schreier", "enumerate maximal Schreier sets")
    p = _action(schreier, "unrank", _cmd_unrank, "the set at a 1-based rank", "--enumeration")
    p.add_argument("rank", help="a decimal rank, any length")
    p = _action(schreier, "rank", _cmd_rank, "the rank of a set", "--enumeration")
    p.add_argument("set", help="a set like 3,4,5 or [3,4,5]")
    p = _action(schreier, "count", _cmd_count, "how many sets have maximum <= n")
    p.add_argument("n", help="the bound on the maximum")

    p = _action(
        command("cesaro", "Cesaro-mean certificates"), "certify", _cmd_certify,
        "certify that a subsequence is not Cesaro null", "--enumeration", "--seed",
    )
    p.add_argument("--subsequence", required=True, help="rule string, term list, or JSON file")
    p.add_argument("--N", type=int, required=True, help="certify the mean of 2N terms")

    _action(
        command("metric", "validate a distance matrix"), "validate", _cmd_validate,
        "check the metric axioms", "space",
    )

    pairs = command("pairs", "separated pair families")
    p = _action(pairs, "find", _cmd_pairs_find, "greedily find a pair family", "space", "--K")
    p.add_argument("--count", type=int, default=1, help="how many pairs to find")
    _action(pairs, "verify", _cmd_pairs_verify, "verify a pair family", "space", "family")

    holder = command("holder", "norms and bump fields")
    p = _action(holder, "seminorm", _cmd_seminorm, "Holder norms of a field", "space", "--alpha")
    p.add_argument("field", help="field JSON: a file or the text")
    p = _action(holder, "bump", _cmd_bump, "a pair or tent bump", "space", "--alpha", "--K")
    p.add_argument("--kind", choices=["pair", "tent"], default="pair")
    p.add_argument("--pair", type=_label_pair, help="x,y labels for a pair bump")
    p.add_argument("--center", help="center label for a tent bump")
    p.add_argument("--epsilon", type=float, default=1.0, help="radius of a tent bump")

    embed = command("embed", "embedding operators and their bounds")
    _action(
        embed, "holder", _cmd_embed_holder, "distortion of the Holder embedding",
        "space", "family", "--alpha", "--vector", "--seed",
    )
    p = _action(embed, "cb", _cmd_embed_cb, "tent sums into Cb", "space", "--vector", "--seed")
    p.add_argument("--centers", required=True, help="comma labels")
    p.add_argument("--radii", required=True, help="comma radii")
    _action(embed, "linf", _cmd_embed_linf, "step sums into Linf", "--masses", "--vector", "--seed")

    classify = command("classify", "weak Banach-Saks verdicts")
    p = _action(classify, "calpha", _cmd_classify_calpha, "Holder functions on a metric space")
    either = p.add_mutually_exclusive_group()
    either.add_argument("--points", type=int, help="point count")
    either.add_argument("--assume", choices=["infinite"])
    p = _action(classify, "cb", _cmd_classify_cb, "bounded continuous functions")
    either = p.add_mutually_exclusive_group()
    either.add_argument("--ordinal", metavar="EXPR", help="compact space as the interval (0, EXPR]")
    either.add_argument("--assume", choices=["noncompact"])
    p = _action(classify, "linf", _cmd_classify_linf, "essentially bounded functions", "--masses")
    p.add_argument("--more-sets", action="store_true", help="assert infinitely many more sets")
    p = _action(classify, "ordinal", _cmd_classify_ordinal, "continuous functions on (0, EXPR]")
    p.add_argument("expr", help='ordinal in Cantor normal form, like "w^2*3 + 5"')

    p = _action(
        command("experiment", "run a certified suite"), "run", _cmd_experiment,
        "run one suite or all", "--seed", "--enumeration",
    )
    p.add_argument("name", choices=list(EXPERIMENT_NAMES) + ["all"])
    p.add_argument("--report-dir", type=Path, default=None, help="write JSON + CSV here")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        status = args.handler(args)
        sys.stdout.flush()  # a reader that left fails here, not at interpreter exit
        return status
    except BrokenPipeError as exc:
        # send what stdout still buffers to devnull, as the signal module's
        # docs advise, so the interpreter prints nothing more at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        payload = {"error": type(exc).__name__, "message": "stdout closed before the output was written"}
    except MemoryError as exc:
        # numpy's _ArrayMemoryError included: its text names the array
        action = f"{args.command} {args.action}" if args else "wbslab"
        payload = {"error": "MemoryError", "message": f"{action} ran out of memory"}
        if str(exc):
            payload["message"] += f": {exc}"
    except (WbsLabError, json.JSONDecodeError) as exc:
        witness = getattr(exc, "witness", None)
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if witness is not None and hasattr(witness, "to_json"):
            payload["witness"] = witness.to_json()
    print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
