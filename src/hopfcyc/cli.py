"""Command-line entry points.

Exit codes: 0 every check passed, 1 a check failed (the report carries the
witness), 2 usage, parse or write error.  Reports are deterministic: fixed witness
ordering and canonical rational formatting; ``--json`` switches the report
body to JSON.  No color is ever emitted, so NO_COLOR is honored trivially.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus, structfile
from .fields import FieldError
from .hopf import StructureError, verify_hopf
from .cocyclic import (
    CocyclicConstructionError,
    build_comodule_algebra_complex,
    build_comodule_coalgebra_complex,
    build_module_algebra_complex,
    check_hcc,
    verify_cocyclic_identities,
)
from .cohomology import cyclic_dims, hochschild_dims
from .cup import CrossedPairing
from .linalg import Vector
from .symmetries import (
    DegreeCapError,
    check_sayd,
    check_sayd_over_algebra,
    check_sayd_over_coalgebra,
)
from .results import CheckResult


def _print_result(check: CheckResult, as_json=False):
    if as_json:
        print(json.dumps(check.to_dict(), sort_keys=True, indent=1, ensure_ascii=False))
    else:
        print(check.describe())
    return 0 if check.passed else 1


def _load_hopf(path):
    d = structfile.load_file(path)
    return d, structfile.hopf_from_dict(d)


def _load_object(path, hopf_dict, hopf, kind=None):
    """A carrier or coefficient file, refused unless it is of ``kind`` (if given)
    or if it is a right comodule algebra, which no command reads."""
    d = structfile.load_file(path, kind)
    X = structfile.object_from_dict(d, hopf_dict, hopf)
    if d["kind"] == "comodule-algebra" and X.side != "left":
        raise structfile.ParseError("%s: a comodule-algebra carrier must be a left "
                                    "comodule algebra, found side %r" % (path, X.side))
    return X


def cmd_examples(args):
    if args.action == "list":
        for name in structfile.example_names():
            print(name)
        return 0
    # emit
    try:
        d, deps = structfile.build_example(args.name)
    except KeyError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    for fname, dep in deps:
        path = os.path.join(outdir, fname)
        if not os.path.exists(path):
            structfile.write_file(path, dep)
            print("wrote %s" % path)
    path = os.path.join(outdir, "%s.json" % args.name)
    structfile.write_file(path, d)
    print("wrote %s" % path)
    return 0


def cmd_check_hopf(args):
    d = structfile.load_file(args.file)
    H = structfile.hopf_from_dict(d, validate=False)
    return _print_result(verify_hopf(H), args.json)


def _warn_if_large(carrier_dim, coeff_dim, hopf_dim, degree):
    rows = (carrier_dim ** (degree + 1)) * coeff_dim * hopf_dim
    if rows > 100_000:
        print("warning: about %d constraint rows at degree %d; this may be slow"
              % (rows, degree), file=sys.stderr)


def cmd_check_coefficient(args):
    hopf_dict, H = _load_hopf(args.hopf)
    coeff = _load_object(args.coeff, hopf_dict, H, "module-comodule")
    flavor = args.flavor
    if flavor == "sayd":
        return _print_result(check_sayd(coeff), args.json)
    if args.carrier is None:
        print("error: --flavor %s needs --carrier" % flavor, file=sys.stderr)
        return 2
    kind = {"ah-sayd": "comodule-algebra", "hc-sayd": "comodule-coalgebra"}.get(flavor)
    if flavor == "hcc":
        kind = structfile.load_file(args.carrier).get("kind")
        if kind not in ("comodule-algebra", "comodule-coalgebra"):
            print("error: hcc needs a comodule-algebra or comodule-coalgebra carrier",
                  file=sys.stderr)
            return 2
    carrier = _load_object(args.carrier, hopf_dict, H, kind)
    n = args.max_degree
    _warn_if_large(carrier.dim, coeff.dim, H.dim, n)
    if flavor == "ah-sayd":
        return _print_result(check_sayd_over_algebra(carrier, coeff, n_max=n), args.json)
    if flavor == "hc-sayd":
        return _print_result(check_sayd_over_coalgebra(carrier, coeff, n_max=n), args.json)
    if flavor == "hcc":
        return _print_result(check_hcc(kind, carrier, coeff, N=n), args.json)
    print("error: unknown flavor %r" % flavor, file=sys.stderr)
    return 2


def _build_complex(kind, carrier, coeff, N):
    if kind == "comodule-algebra":
        return build_comodule_algebra_complex(carrier, coeff, N)
    if kind == "comodule-coalgebra":
        return build_comodule_coalgebra_complex(carrier, coeff, N)
    if kind == "module-algebra":
        return build_module_algebra_complex(carrier, coeff, N)
    raise ValueError("unknown complex kind %r" % kind)


def cmd_complex_build(args):
    hopf_dict, H = _load_hopf(args.hopf)
    carrier = _load_object(args.carrier, hopf_dict, H, args.kind)
    coeff = _load_object(args.coeff, hopf_dict, H, "module-comodule")
    _warn_if_large(carrier.dim, coeff.dim, H.dim, args.max_degree)
    try:
        X = _build_complex(args.kind, carrier, coeff, args.max_degree)
    except CocyclicConstructionError as err:
        return _print_result(err.check, args.json)
    code = 0
    if args.verify:
        check = verify_cocyclic_identities(X)
        code = _print_result(check, args.json)
    if args.out:
        structfile.write_file(args.out, X.to_dict())
        print("wrote %s" % args.out)
    elif not args.verify:
        print(json.dumps(X.to_dict(), sort_keys=True, indent=1, ensure_ascii=False))
    return code


def cmd_cohomology(args):
    hopf_dict, H = _load_hopf(args.hopf)
    carrier = _load_object(args.carrier, hopf_dict, H, args.kind)
    coeff = _load_object(args.coeff, hopf_dict, H, "module-comodule")
    try:
        X = _build_complex(args.kind, carrier, coeff, args.max_degree + 1)
    except CocyclicConstructionError as err:
        return _print_result(err.check, args.json)
    try:
        table = (hochschild_dims(X, args.max_degree) if args.theory == "hochschild"
                 else cyclic_dims(X, args.max_degree))
    except CocyclicConstructionError as err:
        return _print_result(err.check, args.json)
    except FieldError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(table.to_dict(), sort_keys=True, indent=1, ensure_ascii=False))
    else:
        print(table.render())
    return 0


def cmd_cup(args):
    hopf_dict, H = _load_hopf(args.hopf)
    action_algebra = _load_object(args.action_algebra, hopf_dict, H, "module-algebra")
    comodule_algebra = _load_object(args.comodule_algebra, hopf_dict, H, "comodule-algebra")
    coeff = _load_object(args.coeff, hopf_dict, H, "module-comodule")
    phi_d = structfile.load_file(args.phi, "cochain")
    psi_d = structfile.load_file(args.psi, "cochain")
    p, q = phi_d["degree"], psi_d["degree"]
    for d in (phi_d, psi_d):  # coordinates are parsed in the Hopf algebra's field
        structfile.field_of(d, H)
    field = H.field
    try:
        pairing = CrossedPairing(action_algebra, comodule_algebra, coeff, N=p + q)
    except (StructureError, CocyclicConstructionError) as err:
        return _print_result(err.check, args.json)
    phis = pairing.module_side.subspaces[p]
    psis = pairing.comodule_side.subspaces[q]
    phi_amb = structfile._vec_from_entries(phi_d["coordinates"], phis.ambient, field, "phi")
    psi_amb = structfile._vec_from_entries(psi_d["coordinates"], psis.ambient, field, "psi")
    pc, qc = phis.coords(phi_amb), psis.coords(psi_amb)
    if pc is None or qc is None:
        print("error: cochain does not lie in its complex's degree-%d space"
              % (p if pc is None else q), file=sys.stderr)
        return 2
    phi_vec = Vector(pairing.module_side.spaces[p], pc)
    psi_vec = Vector(pairing.comodule_side.spaces[q], qc)
    try:
        out, check = pairing.cup(phi_vec, p, psi_vec, q)
    except StructureError as err:
        return _print_result(err.check, args.json)
    target = pairing.target
    labels = target.ambient_descriptions[p + q]
    result = {
        "degree": p + q,
        "coordinates": [[i, field.format(v)] for i, v in sorted(out.entries.items())],
        "basis": labels,
        "check": check.to_dict(),
    }
    if args.json:
        print(json.dumps(result, sort_keys=True, indent=1, ensure_ascii=False))
    else:
        terms = ["(%s)·%s" % (field.format(v), labels[i])
                 for i, v in sorted(out.entries.items())]
        print("cup cochain (degree %d): %s" % (p + q, " + ".join(terms) or "0"))
        print(check.describe())
    return 0 if check.passed else 1


def cmd_corpus(args):
    if args.action == "list":
        for name in corpus.SCENARIOS:
            print("%-44s %s" % (name, corpus.SCENARIO_SUMMARIES[name]))
        return 0
    names = list(corpus.SCENARIOS) if args.all else [args.name]
    if not args.all and args.name is None:
        print("error: corpus run needs a scenario name or --all", file=sys.stderr)
        return 2
    worst = 0
    report = {}
    for name in names:
        if name not in corpus.SCENARIOS:
            print("error: unknown scenario %r" % name, file=sys.stderr)
            return 2
        checks = corpus.run_scenario(name)
        report[name] = [c.to_dict() for c in checks]
        npass = sum(1 for c in checks if c.passed)
        if not args.json:
            print("%s: %d/%d passed" % (name, npass, len(checks)))
            for c in checks:
                if not c.passed:
                    print("  " + c.describe().replace("\n", "\n  "))
        if npass != len(checks):
            worst = 1
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=1, ensure_ascii=False))
    return worst


def _degree(text):
    """A --max-degree value: an int, 0 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if n < 0:
        raise argparse.ArgumentTypeError("must be 0 or more, got %d" % n)
    return n


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hcc",
        description="Exact checks for Hopf-algebra cyclic-cohomology "
                    "coefficients, cocyclic modules, and cup products.")
    parser.add_argument("--json", action="store_true", help="emit reports as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("examples", help="list or emit built-in structure files")
    psub = p.add_subparsers(dest="action", required=True)
    psub.add_parser("list")
    pe = psub.add_parser("emit")
    pe.add_argument("name")
    pe.add_argument("--out", default=None, help="output directory (default .)")

    p = sub.add_parser("check", help="verify axioms or coefficient conditions")
    csub = p.add_subparsers(dest="what", required=True)
    ph = csub.add_parser("hopf")
    ph.add_argument("file")
    pc = csub.add_parser("coefficient")
    pc.add_argument("--flavor", required=True,
                    choices=["sayd", "ah-sayd", "hc-sayd", "hcc"])
    pc.add_argument("--hopf", required=True)
    pc.add_argument("--carrier", default=None)
    pc.add_argument("--coeff", required=True)
    pc.add_argument("--max-degree", type=_degree, default=2)

    p = sub.add_parser("complex", help="build a cocyclic module")
    xsub = p.add_subparsers(dest="action", required=True)
    pb = xsub.add_parser("build")
    pb.add_argument("--kind", required=True,
                    choices=["comodule-algebra", "comodule-coalgebra", "module-algebra"])
    pb.add_argument("--hopf", required=True)
    pb.add_argument("--carrier", required=True)
    pb.add_argument("--coeff", required=True)
    pb.add_argument("--max-degree", type=_degree, default=3)
    pb.add_argument("--verify", action="store_true")
    pb.add_argument("--out", default=None, help="write the serialized complex here")

    p = sub.add_parser("cohomology", help="Hochschild or cyclic dimensions")
    p.add_argument("--theory", required=True, choices=["hochschild", "cyclic"])
    p.add_argument("--kind", required=True,
                   choices=["comodule-algebra", "comodule-coalgebra", "module-algebra"])
    p.add_argument("--hopf", required=True)
    p.add_argument("--carrier", required=True)
    p.add_argument("--coeff", required=True)
    p.add_argument("--max-degree", type=_degree, default=3)

    p = sub.add_parser("cup", help="cup product of two cyclic cocycles")
    p.add_argument("--hopf", required=True)
    p.add_argument("--action-algebra", required=True)
    p.add_argument("--comodule-algebra", required=True)
    p.add_argument("--coeff", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)

    p = sub.add_parser("corpus", help="run the named lemma/proposition scenarios")
    ksub = p.add_subparsers(dest="action", required=True)
    ksub.add_parser("list")
    pr = ksub.add_parser("run")
    pr.add_argument("name", nargs="?", default=None)
    pr.add_argument("--all", action="store_true")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        if args.command == "examples":
            return cmd_examples(args)
        if args.command == "check":
            if args.what == "hopf":
                return cmd_check_hopf(args)
            return cmd_check_coefficient(args)
        if args.command == "complex":
            return cmd_complex_build(args)
        if args.command == "cohomology":
            return cmd_cohomology(args)
        if args.command == "cup":
            return cmd_cup(args)
        if args.command == "corpus":
            return cmd_corpus(args)
    except structfile.ParseError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except StructureError as err:
        print("error: input fails its structural axioms", file=sys.stderr)
        print(err.check.describe(), file=sys.stderr)
        return 2
    except (FieldError, DegreeCapError, OSError) as err:
        # OSError: a file or directory that --out names cannot be written
        print("error: %s" % err, file=sys.stderr)
        return 2
    parser.error("unknown command")
    return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
