"""Command-line surface: JSON instance files in, computations out.

Verbs:
    coeffs     Hilbert (and optionally fiber / normal-filtration) coefficients
    check      run one named bound checker with ideal bindings
    sweep      generate a seeded instance family and run the full battery
    minreduce  sample minimal reductions and report the best one found

Exit codes: 0 success (check: verified/unresolved), 1 a bound was violated,
2 input or binding error, 3 a computation hit a limit (horizon, cap, staircase
size or sample budget).
"""

import argparse
import json
import sys

from . import __version__, bounds, groebner, instances, invariants, monomial, semigroup


class InputError(Exception):
    pass


def _emit(payload, path=None):
    text = json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _object(value, what):
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def _integer(v, what):
    """v, a JSON integer; a float, bool or string is refused, never converted."""
    if type(v) is not int:
        raise InputError(f"{what} must be an integer, not {v!r}")
    return v


def _build_ring(spec):
    kind = _object(spec, "a ring spec").get("kind")
    if kind == "poly":
        return invariants.poly_context(
            _integer(spec["vars"], "'vars'"),
            _integer(spec.get("char", groebner.DEFAULT_PRIME), "'char'"))
    if kind == "semigroup":
        return invariants.semigroup_context(semigroup.semigroup(
            [_integer(g, "a semigroup generator") for g in spec["gens"]]))
    raise InputError(f"unknown ring kind {kind!r}")


# the ring kind each generator form is read in; "extend" follows its base
FORM_KINDS = {"monomial": "poly", "polynomials": "poly", "exponents": "semigroup"}


# the ideal is the whole local ring: its staircase is 0 at the origin, it
# holds t^0, or a generator has a nonzero constant term (a unit at the origin)
IS_UNIT = {
    monomial.MonomialIdeal: lambda I: I.is_unit,
    semigroup.SemigroupIdeal: lambda I: I.member(0),
    groebner.GroebnerIdeal: lambda I: any(not any(exp) for g in I.gens for exp in g),
}


def _vector(ctx, v):
    """An exponent vector of the poly ring ctx: ctx.dim nonnegative integers."""
    if not (isinstance(v, list) and len(v) == ctx.dim
            and all(_integer(a, "an exponent") >= 0 for a in v)):
        raise InputError(f"{v!r} is not a vector of {ctx.dim} nonnegative integers")
    return tuple(v)


def _build_ideal(data, rings, ideals, spec):
    ring_name = _object(spec, "an ideal spec").get("ring")
    if ring_name not in rings:
        raise InputError(f"ideal references unknown ring {ring_name!r}")
    ctx = rings[ring_name]
    form = spec.get("form", "monomial")
    if FORM_KINDS.get(form, ctx.kind) != ctx.kind:
        raise InputError(f"form {form!r} needs a {FORM_KINDS[form]} ring, "
                         f"but ring {ring_name!r} is {ctx.kind}")
    if form == "monomial":
        I = monomial.minimalize(ctx.dim, [_vector(ctx, v) for v in spec["data"]])
    elif form == "exponents":
        I = semigroup.ideal(ctx.numerical,
                            [_integer(v, "a semigroup exponent") for v in spec["data"]])
    elif form == "polynomials":
        ring = groebner.PolyRing(ctx.dim, ctx.char_p)
        I = groebner.GroebnerIdeal(ring, [
            {_vector(ctx, t["exp"]): _integer(t["coef"], "a coefficient") for t in poly}
            for poly in spec["data"]])
    elif form == "extend":
        ctx, base = _resolve_ideal(data, rings, ideals, spec["data"]["base"])
        I = base.extend([_vector(ctx, v) if ctx.kind == "poly"
                         else _integer(v, "a semigroup exponent")
                         for v in spec["data"]["extra"]])
    else:
        raise InputError(f"unknown ideal form {form!r}")
    if IS_UNIT[type(I)](I):
        raise InputError("the ideal is the whole ring, not an m-primary ideal")
    return ctx, I


def _resolve_ideal(data, rings, ideals, name):
    if name in ideals:
        if ideals[name] is None:
            raise InputError(f"ideal {name!r} is defined in terms of itself")
        return ideals[name]
    specs = data.get("ideals", {})
    if name not in specs:
        raise InputError(f"unknown ideal {name!r}")
    ideals[name] = None  # marks name as being built
    ideals[name] = _build_ideal(data, rings, ideals, specs[name])
    return ideals[name]


def _load_instances(path):
    try:
        with open(path) as fh:
            data = _object(json.load(fh), "an instance file")
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read instance file {path}: {exc}")
    rings = {}
    for name, spec in _object(data.get("rings", {}), "'rings'").items():
        rings[name] = _build_ring(spec)
    return data, rings, {}


def _sequence_payload(obj):
    return {"start_n": 1, "values": list(obj.sequence)}


def cmd_coeffs(args):
    data, rings, ideals = _load_instances(args.file)
    ctx, I = _resolve_ideal(data, rings, ideals, args.ideal)
    hil = invariants.hilbert_coeffs(ctx, I)
    payload = {"e": list(hil.e), "postulation": hil.postulation,
               "sequence": _sequence_payload(hil)}
    if args.fiber:
        payload["f"] = list(invariants.fiber_coeffs(ctx, I).f)
    if args.normal:
        nh, nf = invariants.normal_coeffs(ctx, I)
        payload["normal"] = {"e": list(nh.e), "f": list(nf.f)}
    _emit(payload, args.json)
    return 0


CHECKERS = {
    "thm_2_2": (bounds.check_thm_2_2, ("J", "I")),
    "thm_2_3": (bounds.check_thm_2_3, ("J", "I")),
    "cor_e1para": (bounds.check_cor_e1para, ("Q", "I")),
    "thm_e1hs": (bounds.check_thm_e1hs, ("J", "I")),
    "prop_f0": (bounds.check_prop_f0, ("J", "I")),
    "cor_sally": (bounds.check_cor_sally, ("Q", "I")),
    "thm_3_1": (bounds.check_thm_3_1, ("I",)),
    "lemma_3_2": (bounds.check_lemma_3_2, ("Q", "I")),
    "thm_3_3": (bounds.check_thm_3_3, ("I",)),
    "cor_after_3_3": (bounds.check_cor_after_3_3, ()),
    "rossi": (bounds.check_rossi, ("Q", "I")),
    "normalization": (bounds.check_normalization, ("I",)),
    "intro": (bounds.check_intro_bounds, ("I",)),
}


def _parse_bindings(text):
    out = {}
    if not text:
        return out
    for part in text.split(","):
        if "=" not in part:
            raise InputError(f"binding {part!r} is not k=v")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def cmd_check(args):
    data, rings, ideals = _load_instances(args.file)
    if args.theorem not in CHECKERS:
        raise InputError(f"unknown theorem id {args.theorem!r}; "
                         f"known: {sorted(CHECKERS)}")
    fn, params = CHECKERS[args.theorem]
    binds = _parse_bindings(args.bind)
    call = []
    ctx = None
    for p in params:
        if p not in binds:
            raise InputError(f"theorem {args.theorem} needs binding {p}=...")
        c, ideal_obj = _resolve_ideal(data, rings, ideals, binds[p])
        if ctx not in (None, c):
            raise InputError(f"ideal {binds[p]!r} is not in the ring of the ideals before it")
        ctx = c
        call.append(ideal_obj)
    if ctx is None:
        ring_name = binds.get("ring") or next(iter(rings), None)
        if ring_name is None:
            raise InputError("no ring available for the check")
        ctx = rings[ring_name]
    kwargs = {}
    if args.theorem in ("thm_3_1", "thm_3_3"):
        kwargs["seed"] = args.seed
    result = fn(ctx, *call, **kwargs)
    reports = result if isinstance(result, list) else [result]
    payload = {"tool_version": __version__, "seed": args.seed,
               "reports": [r.as_dict() for r in reports]}
    _emit(payload, args.json)
    return 1 if any(r.status == "violated" for r in reports) else 0


def cmd_sweep(args):
    if args.family not in instances.FAMILIES:
        raise InputError(f"unknown family {args.family!r}; "
                         f"known: {list(instances.FAMILIES)}")
    if args.count is not None and args.count < 0:
        raise InputError(f"--count must be >= 0, not {args.count}")
    if args.jobs < 1:
        raise InputError(f"--jobs must be >= 1, not {args.jobs}")
    result = instances.sweep(args.family, count=args.count, seed=args.seed,
                             jobs=args.jobs)
    _emit(result, args.json)
    violated = sum(slot["violated"] for slot in result["aggregate"].values())
    return 1 if violated else 0


def cmd_minreduce(args):
    if args.samples < 0:
        raise InputError(f"--samples must be >= 0, not {args.samples}")
    data, rings, ideals = _load_instances(args.file)
    ctx, I = _resolve_ideal(data, rings, ideals, args.ideal)
    rep = invariants.minimal_reduction(ctx, I, samples=args.samples,
                                       seed=args.seed)
    payload = {
        "q_descriptor": rep.q_descriptor,
        "reduction_number": rep.reduction_number,
        "is_minimal": True,  # every reduction returned has d generators in dimension d
        "samples_tried": rep.samples_tried,
        "certified": rep.certified,
    }
    _emit(payload, args.json)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="idealkit",
        description="Hilbert coefficients, reduction numbers and bound sweeps")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("coeffs", help="Hilbert/fiber coefficients of an ideal")
    p.add_argument("--file", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--fiber", action="store_true")
    p.add_argument("--normal", action="store_true")
    p.add_argument("--json")
    p.set_defaults(run=cmd_coeffs)

    p = sub.add_parser("check", help="run one named bound checker")
    p.add_argument("--file", required=True)
    p.add_argument("--theorem", required=True)
    p.add_argument("--bind", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("sweep", help="run a checker battery over a family")
    p.add_argument("--family", required=True)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json")
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("minreduce", help="sample minimal reductions")
    p.add_argument("--file", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--samples", type=int, default=invariants.SAMPLE_COUNT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json")
    p.set_defaults(run=cmd_minreduce)
    return parser


INPUT_ERRORS = (InputError, KeyError, ValueError, TypeError,
                monomial.NotMPrimary, monomial.DimensionUnsupported,
                semigroup.NotCoprime)
LIMIT_ERRORS = (invariants.HorizonExceeded, invariants.NoReductionFound,
                groebner.NonStabilizing, groebner.CapExceeded,
                semigroup.WindowOverflow, MemoryError)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except LIMIT_ERRORS as exc:
        print(f"limit error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
