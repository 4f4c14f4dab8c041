"""Command-line front end: generate instances, compute invariants, run the
verification battery.

Exit codes: 0 clean (skipped checks do not fail a run), 1 at least one
check failed, 2 operational error (bad arguments, unreadable input,
invalid complex or coloring).
"""
from __future__ import annotations

import argparse
import json
import sys

from . import generators, report
from ._version import __version__
from .complexes import ColoredComplex, InvalidComplexError, f_vector, from_dict, h_vector, to_dict
from .complexes import flag_vectors
from .homology import DEFAULT_FIELD, FieldSpec, reduced_betti
from .inequalities import balanced_g
from .sr_algebra import GenericityError, colored_lsop, draw_verified_lsop, quotient_hilbert


class CliError(Exception):
    """Operational failure; message goes to stderr, exit code 2."""


def _field(args) -> FieldSpec:
    p = getattr(args, "p", None)
    if p is None:
        return DEFAULT_FIELD
    try:
        return FieldSpec("prime", p)
    except ValueError as e:
        raise CliError(str(e))


def _seeds(args) -> list[int]:
    raw = getattr(args, "seeds", None)
    if raw is None:
        return [1, 2, 3]
    try:
        return [int(x) for x in raw.split(",") if x != ""]
    except ValueError:
        raise CliError("seeds must be a comma-separated list of integers")


def _load(path: str) -> tuple[str, ColoredComplex]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise CliError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise CliError("%s is not valid JSON: %s" % (path, e))
    try:
        gamma = from_dict(data)
    except (InvalidComplexError, ValueError) as e:
        raise CliError("%s: %s" % (path, e))
    name = data.get("name") or path.rsplit("/", 1)[-1].removesuffix(".json")
    return name, gamma


def _need_colored(gamma, what: str) -> ColoredComplex:
    if not isinstance(gamma, ColoredComplex):
        raise CliError("%s needs a coloring and the input has none" % what)
    return gamma


def _family_spec(args) -> generators.FamilySpec:
    base = None
    if args.base is not None:
        try:
            base = generators.FamilySpec.from_dict(json.loads(args.base))
        except (json.JSONDecodeError, ValueError) as e:
            raise CliError("bad base spec: %s" % e)
    return generators.FamilySpec(
        family=args.family, dim=args.dim, count=args.count, seed=args.seed, base=base
    )


def cmd_generate(args) -> int:
    spec = _family_spec(args)
    try:
        gamma = generators.build(spec)
    except ValueError as e:
        raise CliError(str(e))
    name = args.name or _default_name(spec)
    out = args.out or (name + ".json")
    payload = to_dict(gamma, name=name)
    payload["provenance"] = spec.to_dict()
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise CliError("cannot write %s: %s" % (out, e))
    d = gamma.palette
    h = h_vector(gamma.complex, d)
    g = balanced_g(h, d)
    print("%s -> %s" % (name, out))
    print("n = %d, palette = %d" % (gamma.n, d))
    print("f =", " ".join(str(x) for x in f_vector(gamma.complex)))
    print("h =", " ".join(str(x) for x in h))
    print("g =", " ".join(str(x) for x in g.entries))
    return 0


def _default_name(spec: generators.FamilySpec) -> str:
    bits = [spec.family]
    if spec.dim is not None:
        bits.append("d%d" % spec.dim)
    if spec.count is not None:
        bits.append("m%d" % spec.count)
    if spec.base is not None:
        bits.append("of_" + _default_name(spec.base))
    return "_".join(bits)


def cmd_compute(args) -> int:
    _, gamma = _load(args.infile)
    delta = gamma.complex if isinstance(gamma, ColoredComplex) else gamma
    what = args.what
    fld = _field(args)
    if what == "f":
        print(" ".join(str(x) for x in f_vector(delta)))
    elif what == "h":
        d = gamma.palette if isinstance(gamma, ColoredComplex) else delta.dim + 1
        print(" ".join(str(x) for x in h_vector(delta, d)))
    elif what == "g":
        g = _need_colored(gamma, "g")
        vec = balanced_g(h_vector(delta, g.palette), g.palette)
        print(" ".join(str(x) for x in vec.entries))
    elif what in ("flag_f", "flag_h"):
        g = _need_colored(gamma, what)
        ff, fh = flag_vectors(g)
        table = ff if what == "flag_f" else fh
        for s, value in table.items():
            label = "{%s}" % ",".join(str(c) for c in sorted(s))
            print("%s -> %d" % (label, value))
    elif what == "betti":
        table = reduced_betti(delta, fld)
        for k in range(-1, table.dim + 1):
            print("%d -> %d" % (k, table.get(k)))
    elif what == "hilbert":
        g = _need_colored(gamma, "hilbert")
        if args.lsop == "colored":
            forms = colored_lsop(g)
        else:
            try:
                forms, _, _ = draw_verified_lsop(g, seed=args.seed or 1, fld=fld)
            except GenericityError as e:
                raise CliError("generic draw failed: %s" % e)
        up_to = args.truncation if args.truncation is not None else g.palette + 1
        dims = quotient_hilbert(g, forms, up_to, fld)
        print(" ".join(str(x) for x in dims))
    else:
        raise CliError("unknown invariant %r" % what)
    return 0


def cmd_verify(args) -> int:
    fld = _field(args)
    seeds = _seeds(args)
    checks = _parse_checks(args.checks)
    instances = []
    if args.family_suite:
        if args.family_suite != "default":
            raise CliError("unknown suite %r" % args.family_suite)
        for name, spec in generators.default_suite_specs():
            instances.append((name, generators.build(spec), spec.to_dict()))
    for path in args.infile or []:
        name, gamma = _load(path)
        if not isinstance(gamma, ColoredComplex):
            raise CliError("%s has no coloring; the battery needs colored complexes" % path)
        instances.append((name, gamma, {"path": path}))
    if not instances:
        raise CliError("nothing to verify: give --in or --family-suite")
    rep = report.run_battery(instances, checks, seeds=seeds, fld=fld,
                             truncation=args.truncation, cap=args.cap)
    if args.format == "json":
        text = json.dumps(rep, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        text = report.to_csv(rep)
    else:
        text = report.to_text(rep)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise CliError("cannot write %s: %s" % (args.out, e))
    else:
        sys.stdout.write(text)
    return 1 if report.report_failed(rep) else 0


def _parse_checks(raw: str) -> list[str]:
    if raw == "all":
        return list(report.ALL_CHECKS)
    chosen = [c for c in raw.split(",") if c != ""]
    if not chosen:
        raise CliError("at least one check must be selected")
    bad = [c for c in chosen if c not in report.ALL_CHECKS]
    if bad:
        raise CliError("unknown checks %r; valid: %s" % (bad, ", ".join(report.ALL_CHECKS)))
    return chosen


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bglb",
        description="Generate balanced sphere instances, compute their invariants, "
                    "and verify the inequality and injectivity battery.",
    )
    parser.add_argument("--version", action="version", version="bglb " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a named family instance and write its JSON")
    g.add_argument("--family", required=True,
                   choices=["cross", "stacked_cross", "barycentric", "suspension"])
    g.add_argument("--dim", type=int)
    g.add_argument("--count", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--base", help="JSON family spec for derived families")
    g.add_argument("--name")
    g.add_argument("--out")
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("compute", help="print one invariant of a complex file")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--what", required=True,
                   choices=["f", "h", "g", "flag_f", "flag_h", "betti", "hilbert"])
    c.add_argument("--lsop", choices=["colored", "generic"], default="colored")
    c.add_argument("--seed", type=int)
    c.add_argument("--p", type=int)
    c.add_argument("--truncation", type=int)
    c.set_defaults(func=cmd_compute)

    v = sub.add_parser("verify", help="run checks over instances and write a report")
    v.add_argument("--in", dest="infile", action="append")
    v.add_argument("--family-suite", dest="family_suite")
    v.add_argument("--checks", default="all")
    v.add_argument("--seeds")
    v.add_argument("--p", type=int)
    v.add_argument("--truncation", type=int)
    v.add_argument("--cap", type=int, default=report.GENERIC_DIM_CAP,
                   help="largest graded dimension attempted for generic-form ranks")
    v.add_argument("--format", choices=["json", "csv", "text"], default="json")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print("bglb: %s" % e, file=sys.stderr)
        return 2
    except (InvalidComplexError, ValueError) as e:
        print("bglb: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
