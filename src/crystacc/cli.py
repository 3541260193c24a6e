"""Command-line interface: JSON problem configs in, JSON reports out.

Commands: check-group, accuracy, cascade, lift, extract.  Exit codes:
0 success, 1 malformed input, 2 invalid group or a command-line usage
error (this one prints the usage and the error on stderr and nothing on
stdout; -h prints the usage and exits 0), 3 inadmissible dilation,
4 mask shape/multiplicity mismatch (also a matrix mask given to extract
that is no lift), 5 cascade failure (non-convergence under --strict, a
support box that does not certify within the step bound, a grid too
coarse to sample, or a grid whose estimated memory exceeds half of
physical memory).  Without --strict, a cascade that did
not converge reports a null empirical accuracy; so does a field that
does not vanish identically when the exact gate says its integral must
vanish.  An --out path that cannot be written is refused before any
work is done.  Rational numbers travel
as "p/q" strings so the exact pipeline survives JSON.  The CLI checks
shapes and maps errors to exit codes; the library reads every scalar
(``linalg.read_scalar``).  A plain JSON float coefficient is read as a
rational by the mask, every output stays exact, and ``accuracy`` reports
the largest relative change as the ``float_max_relative_change``
diagnostic.  Booleans, NaN and infinities are malformed input.  The
group defaults to p1, in any dimension.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import types
from fractions import Fraction

from .accuracy import max_accuracy, sufficient_check
from .crystal import (AdmissibilityError, CrystalTriple, Dilation,
                      GroupValidationError, catalog_names, catalog_triple,
                      check_admissible, generate_group, validate_triple)
from .linalg import Mat, QC
from .mask import Mask, MaskShapeError, extract_scalar, lattice_triple, \
    lift_scalar_to_matrix
from .multiidx import VCollection
from . import cascade as cascade_mod

SCHEMA_VERSION = 1
SEED_ENV_VAR = "CRYSTACC_SEED"
DEFAULT_SEED = 2026

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_BAD_GROUP = 2
EXIT_INADMISSIBLE = 3
EXIT_SHAPE = 4
EXIT_NO_CONVERGENCE = 5
EXIT_USAGE = 2

USAGE = (
    "crystacc [--seed N] check-group CONFIG\n"
    "crystacc [--seed N] accuracy CONFIG"
    " [--method condition-d|sufficient|both] [--p-max N]\n"
    "crystacc [--seed N] cascade CONFIG [--iters N] [--grid Q] [--verify-p P]"
    " [--strict] [--out FIELD.csv]\n"
    "crystacc [--seed N] lift CONFIG\n"
    "crystacc [--seed N] extract CONFIG\n"
    "crystacc -h\n"
    "Options: exact names only, as --name VALUE or --name=VALUE.\n")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------- parsing

def _parse_matrix(rows, what: str, dim: int | None = None) -> Mat:
    """A lattice, dilation or generator: a nonempty list of equally long
    rows of real exact rationals, dim x dim when ``dim`` is given (an
    invalid group otherwise)."""
    if not (isinstance(rows, list) and rows
            and all(isinstance(r, list) for r in rows)):
        raise CliError(EXIT_MALFORMED, f"{what} must be a nested list")
    if any(len(r) != len(rows[0]) for r in rows):
        raise CliError(EXIT_MALFORMED, f"{what} rows differ in length")
    if dim is not None and (len(rows), len(rows[0])) != (dim, dim):
        raise CliError(EXIT_BAD_GROUP, f"invalid group: {what} is "
                       f"{len(rows)}x{len(rows[0])}, not {dim}x{dim}")
    try:
        mat = Mat.from_rows(rows)
    except TypeError:
        raise CliError(EXIT_MALFORMED, f"{what} must be exact rationals")
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, str(exc))
    if any(isinstance(x, QC) for row in mat.plain() for x in row):
        raise CliError(EXIT_MALFORMED, f"{what} must be real")
    return mat


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_MALFORMED, f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_MALFORMED, f"malformed JSON: {exc}")
    if not isinstance(cfg, dict):
        raise CliError(EXIT_MALFORMED, "config must be a JSON object")
    return cfg


def _number(value, what: str, kind=int, minimum=None):
    """``value`` as ``kind``; a value that is not one is malformed input:
    a boolean, or a fractional number where ``kind`` is int."""
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise TypeError
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise CliError(EXIT_MALFORMED, f"{what} must be "
                       f"{kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(out):
        raise CliError(EXIT_MALFORMED, f"{what} must be finite")
    if minimum is not None and out < minimum:
        raise CliError(EXIT_MALFORMED, f"{what} must be at least {minimum}")
    return out


def _option(cfg: dict, name: str, default, kind=int, minimum=None):
    """Entry ``name`` of the config's ``options`` object, read by
    :func:`_number`, or ``default`` when absent."""
    options = cfg.get("options", {})
    if not isinstance(options, dict):
        raise CliError(EXIT_MALFORMED, "'options' must be a JSON object")
    return _number(options.get(name, default), f"option {name!r}", kind,
                   minimum)


def _build_setting(cfg: dict) -> tuple[CrystalTriple, Dilation]:
    """The triple and the dilation of the config.  The group's generators,
    the lattice and the dilation are checked against ``dimension`` before
    anything of that size is built, so a config costs no more than its own
    size: a dilation of the wrong size is refused as the admissibility test
    would refuse it."""
    if "dimension" not in cfg:
        raise CliError(EXIT_MALFORMED, "config needs an integer 'dimension'")
    dim = _number(cfg["dimension"], "'dimension'", minimum=1)
    group = cfg.get("group", "p1")
    lattice = cfg.get("lattice")
    if not isinstance(group, (str, list)):
        raise CliError(EXIT_MALFORMED, "'group' must be a catalog name or a "
                       "list of generator matrices")
    if isinstance(group, str) and group not in catalog_names(dim):
        raise CliError(EXIT_BAD_GROUP, f"unknown catalog group {group!r} in "
                       f"dimension {dim}")
    try:
        points = None if isinstance(group, str) else generate_group(
            [_parse_matrix(g, "group generator", dim) for g in group])
        r_mat = None if lattice is None else _parse_matrix(lattice,
                                                           "lattice", dim)
        if "dilation" not in cfg:
            raise CliError(EXIT_MALFORMED, "config needs a 'dilation' matrix")
        a_mat = _parse_matrix(cfg["dilation"], "dilation")
        if a_mat.shape != (dim, dim):
            raise CliError(EXIT_INADMISSIBLE, "inadmissible dilation: "
                           "dilation must be an exact d x d matrix")
        if points is None:
            triple = catalog_triple(group, dim)
            if r_mat is not None:
                triple = validate_triple(r_mat, triple.group, group)
        else:
            triple = validate_triple(
                Mat.identity(dim) if r_mat is None else r_mat, points,
                "custom")
    except GroupValidationError as exc:
        raise CliError(EXIT_BAD_GROUP, f"invalid group: {exc}")
    try:
        return triple, check_admissible(a_mat, triple)
    except AdmissibilityError as exc:
        raise CliError(EXIT_INADMISSIBLE, f"inadmissible dilation: {exc}")


def _is_int(x) -> bool:
    """A JSON integer; true and false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _build_mask(cfg: dict, triple: CrystalTriple) -> Mask:
    """The config's mask: the entries' shapes are checked here, and their
    coefficients are read by :class:`Mask`."""
    entries = cfg.get("mask")
    if not isinstance(entries, list) or not entries:
        raise CliError(EXIT_MALFORMED, "config needs a nonempty 'mask' list")
    blocks = {}
    for pos, item in enumerate(entries):
        if not isinstance(item, dict):
            raise CliError(EXIT_MALFORMED, f"mask entry {pos} not an object")
        g = item.get("g", 0)
        k = item.get("k")
        coef = item.get("coef")
        if not _is_int(g) or not (0 <= g < triple.order):
            raise CliError(EXIT_MALFORMED,
                           f"mask entry {pos}: bad point index {g!r}")
        if (not isinstance(k, list) or len(k) != triple.d
                or not all(_is_int(x) for x in k)):
            raise CliError(EXIT_MALFORMED,
                           f"mask entry {pos}: k must be {triple.d} integers")
        if not (isinstance(coef, list)
                and any(isinstance(x, list) for x in coef)):
            coef = [[coef]]  # one scalar, possibly an [re, im] pair
        if not all(isinstance(row, list) for row in coef):
            raise CliError(EXIT_MALFORMED,
                           f"mask entry {pos}: coef rows must be lists")
        if any(len(row) != len(coef) for row in coef):
            raise CliError(EXIT_SHAPE, f"mask entry {pos}: block not square")
        key = triple.element(g, tuple(k))
        if key in blocks:
            raise CliError(EXIT_MALFORMED,
                           f"mask entry {pos}: duplicate element")
        blocks[key] = coef
    try:
        return Mask(triple, blocks)
    except MaskShapeError as exc:
        raise CliError(EXIT_SHAPE, f"bad mask: {exc}")
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, str(exc))


# ------------------------------------------------------------ serialization

def _scalar_json(x):
    if isinstance(x, (int, Fraction)):
        return str(x)
    if isinstance(x, QC):
        return [str(x.re), str(x.im)]
    z = complex(x)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _mat_json(mat: Mat):
    return [[_scalar_json(x) for x in row] for row in mat.plain()]


def _mask_json(mask: Mask) -> dict:
    entries = []
    for e, blk in mask.items():
        entries.append({"g": e.g, "k": list(e.k), "coef": _mat_json(blk)})
    return {"schema_version": SCHEMA_VERSION, "r": mask.r,
            "entries": entries}


def _witness_json(v: VCollection | None):
    if v is None:
        return None
    return [_mat_json(v.block(s)) for s in range(v.p)]


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2))


# ----------------------------------------------------------------- commands

def cmd_check_group(args) -> int:
    cfg = _load_config(args.config)
    triple, dilation = _build_setting(cfg)
    report = {
        "schema_version": SCHEMA_VERSION,
        "group": triple.name,
        "dimension": triple.d,
        "order": triple.order,
        "m": dilation.m,
        "digits": [{"g": e.g, "k": list(e.k)} for e in dilation.digits],
        "h": list(dilation.h),
        "rho": [list(row) for row in dilation.rho],
    }
    _emit(report)
    return EXIT_OK


def cmd_accuracy(args) -> int:
    cfg = _load_config(args.config)
    triple, dilation = _build_setting(cfg)
    mask = _build_mask(cfg, triple)
    if args.p_max is not None and args.p_max < 1:
        raise CliError(EXIT_MALFORMED, "--p-max must be at least 1")
    p_max = args.p_max if args.p_max is not None \
        else _option(cfg, "p_max", 6, minimum=1)
    report = {"schema_version": SCHEMA_VERSION, "method": args.method,
              "p_max": p_max}
    cert = None
    if args.method in ("condition-d", "both"):
        cert = max_accuracy(mask, triple, dilation, p_max)
        report["accuracy"] = cert.p
        report["witness"] = _witness_json(cert.witness)
        report["gate"] = _scalar_json(cert.gate) if cert.gate is not None \
            else None
        report["diagnostics"] = {
            str(k): (dict((str(a), b) for a, b in v.items())
                     if isinstance(v, dict) else v)
            for k, v in cert.diagnostics.items()}
    if args.method in ("sufficient", "both"):
        # with both methods, test the sum rules at the certified order;
        # alone, at the requested order
        if cert is not None:
            p_claim = max(cert.p, 1)
        elif args.p_max is not None:
            p_claim = args.p_max
        else:
            p_claim = _option(cfg, "p_max", 2, minimum=1)
        suff = sufficient_check(mask, triple, dilation, p_claim)
        report["sufficient"] = {
            "p": suff.p,
            "passed": suff.passed,
            "sum_total": _scalar_json(suff.sum_total),
            "sum_rule_ok": suff.sum_rule_ok,
            "moments_ok": suff.moments_ok,
            "eigen_ok": suff.eigen_ok,
            "eigen_flags": {str(k): v for k, v in suff.eigen_flags.items()},
            "beta0_consistent": suff.beta0_consistent,
            "beta": [{"b": b, "alpha": list(alpha),
                      "value": _scalar_json(val)}
                     for (b, alpha), val in sorted(suff.beta.items())],
            "chain": _witness_json(suff.v_chain),
            "chain_residual_zero": suff.chain_residual_zero,
            "notes": suff.notes,
        }
    _emit(report)
    return EXIT_OK


def cmd_cascade(args) -> int:
    cfg = _load_config(args.config)
    triple, dilation = _build_setting(cfg)
    mask = _build_mask(cfg, triple)
    if args.iters is not None and args.iters < 1:
        raise CliError(EXIT_MALFORMED, "--iters must be at least 1")
    if args.grid is not None and args.grid < 0:
        raise CliError(EXIT_MALFORMED, "--grid must be nonnegative")
    if args.verify_p is not None and args.verify_p < 0:
        raise CliError(EXIT_MALFORMED, "--verify-p must be nonnegative")
    if args.seed < 0:
        raise CliError(EXIT_MALFORMED, "--seed must be nonnegative")
    if args.out and not _writable(args.out):
        raise CliError(EXIT_MALFORMED,
                       f"cannot write --out: {args.out!r} is not a "
                       "writable file in an existing directory")
    iters = args.iters if args.iters is not None \
        else _option(cfg, "iterations", 12, minimum=1)
    grid_q = args.grid if args.grid is not None \
        else _option(cfg, "grid_exponent", 8, minimum=0)
    tol = _option(cfg, "tolerance", 1e-5, kind=float)
    count = _option(cfg, "sample_count", 32, minimum=1)

    p_max = args.verify_p if args.verify_p is not None \
        else _option(cfg, "p_max", 6, minimum=1)
    cert = max_accuracy(mask, triple, dilation, max(p_max, 1))
    verify_p = args.verify_p if args.verify_p is not None \
        else max(cert.p, 1)
    result = cascade_mod.cascade_iterate(mask, triple, dilation, iters,
                                         grid_exponent=grid_q)
    field = result.field
    field_max = field.max_abs()
    report = {
        "schema_version": SCHEMA_VERSION,
        "iterations": iters,
        "grid_exponent": grid_q,
        "seed": args.seed,
        "converged": result.converged,
        "sup_diff_last": result.sup_diffs[-1],
        "sup_diffs": list(result.sup_diffs),
        "field_max": field_max,
        "degenerate": field.degenerate(),
        "solver_accuracy": cert.p,
    }
    if not result.converged and args.strict:
        report["error"] = "cascade did not converge"
        _emit(report)
        return EXIT_NO_CONVERGENCE

    checks = [] if report["degenerate"] else list(
        cascade_mod.verify_degrees(field, cert.witness, verify_p, tol, count,
                                   args.seed))
    reports = []
    for check in checks:
        rep = check.report
        entry = {"s": check.s, "residual": check.residual,
                 "verdict": check.verdict, "probed": rep is None}
        if rep is not None:
            entry.update(C=_scalar_json(rep.C), excluded=rep.excluded,
                         matched_form=rep.matched_form)
        reports.append(entry)
    report["reports"] = reports
    report["empirical_accuracy"] = cascade_mod.empirical_level(
        result, checks, cert.diagnostics["fhat0_status"])
    if not result.converged:
        report["note"] = ("cascade did not converge: the residuals are "
                          "reported, no empirical accuracy is claimed")
    elif report["empirical_accuracy"] is None:
        report["note"] = ("the averaged coefficient sum has no eigenvalue "
                          "1, so the integral must vanish: the field "
                          "shrinks without vanishing identically, the "
                          "residuals are reported, no empirical accuracy "
                          "is claimed")

    if args.out:
        try:
            _dump_field_csv(field, args.out)
        except OSError as exc:
            raise CliError(EXIT_MALFORMED, f"cannot write --out: {exc}")
        report["csv"] = args.out
    _emit(report)
    return EXIT_OK


def _writable(path: str) -> bool:
    """Whether a file can be written at path: an existing file open to
    writing, or a new name in a writable directory."""
    if os.path.exists(path):
        return not os.path.isdir(path) and os.access(path, os.W_OK)
    parent = os.path.dirname(path) or "."
    return os.path.isdir(parent) and os.access(parent, os.W_OK)


def _dump_field_csv(field, path: str) -> None:
    flat = field.data.reshape(-1, field.r)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [f"x{j}" for j in range(field.d)]
        for c in range(field.r):
            header += [f"re{c}", f"im{c}"]
        writer.writerow(header)
        for row, vals in zip(field.nodes(), flat):
            out = [repr(float(x)) for x in row]
            for c in range(field.r):
                out += [repr(float(vals[c].real)), repr(float(vals[c].imag))]
            writer.writerow(out)


def cmd_lift(args) -> int:
    cfg = _load_config(args.config)
    triple, dilation = _build_setting(cfg)
    mask = _build_mask(cfg, triple)
    _emit(_mask_json(lift_scalar_to_matrix(mask, dilation)))
    return EXIT_OK


def cmd_extract(args) -> int:
    cfg = _load_config(args.config)
    triple, dilation = _build_setting(cfg)
    lat = lattice_triple(triple)
    raw_mask = _build_mask({"mask": cfg.get("mask"), "dimension": triple.d},
                           lat)
    _emit(_mask_json(extract_scalar(raw_mask, triple, dilation)))
    return EXIT_OK


# ---------------------------------------------------------------- dispatch

def _default_seed() -> int:
    """The seed in the environment when it is a nonnegative integer."""
    try:
        seed = int(os.environ.get(SEED_ENV_VAR, DEFAULT_SEED))
    except ValueError:
        return DEFAULT_SEED
    return seed if seed >= 0 else DEFAULT_SEED


def _option_like(token: str) -> bool:
    """A leading '-', but not a lone '-' or a negative integer."""
    return token[:1] == "-" and not token[1:].isdecimal() and token != "-"


def parse_args(argv) -> types.SimpleNamespace | None:
    """The namespace the commands read from ``argv``, as :data:`USAGE`
    spells it, or None for -h or --help.  A value is the next token as it
    stands unless it reads as an option; ``--`` ends the options.  A usage
    error raises a CliError with code EXIT_USAGE."""
    commands = {"check-group": (cmd_check_group, ()),
                "accuracy": (cmd_accuracy, ("--method", "--p-max")),
                "cascade": (cmd_cascade, ("--iters", "--grid", "--verify-p",
                                          "--strict", "--out")),
                "lift": (cmd_lift, ()), "extract": (cmd_extract, ())}
    args = types.SimpleNamespace(
        seed=_default_seed(), config=None, func=None, method="condition-d",
        p_max=None, iters=None, grid=None, verify_p=None, strict=False,
        out=None)
    options, positionals, tokens = ("--seed",), [], iter(argv)
    for token in tokens:
        if token == "--" and args.func:
            positionals += tokens
            continue
        if not _option_like(token):
            if args.func:
                positionals.append(token)
            elif token in commands:
                args.func, options = commands[token]
            else:
                raise CliError(EXIT_USAGE, f"invalid command {token!r}")
            continue
        name, explicit, value = token.partition("=")
        if name in ("-h", "--help"):
            return None
        if name not in options or (explicit and name == "--strict"):
            raise CliError(EXIT_USAGE, f"unrecognized option {token!r}")
        if name == "--strict":
            value = True
        elif not explicit:
            value = next(tokens, None)
            if value is None or _option_like(value):
                raise CliError(EXIT_USAGE, f"{name} expects a value")
        if name == "--method" and value not in ("condition-d", "sufficient",
                                                "both"):
            raise CliError(EXIT_USAGE, f"invalid --method {value!r}")
        if name not in ("--method", "--out", "--strict"):
            try:
                value = int(value)
            except ValueError:
                raise CliError(EXIT_USAGE, f"{name} takes an integer")
        setattr(args, name[2:].replace("-", "_"), value)
    if not args.func:
        raise CliError(EXIT_USAGE, "a command is required")
    if len(positionals) != 1:
        raise CliError(EXIT_USAGE, f"one CONFIG is required, got "
                       f"{positionals}")
    args.config = positionals[0]
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except CliError as exc:
        print("usage: crystacc [-h] [--seed N] COMMAND CONFIG [OPTIONS]\n"
              f"crystacc: error: {exc}", file=sys.stderr)
        return exc.code
    if args is None:
        print(USAGE, end="")
        return EXIT_OK
    try:
        return args.func(args)
    except (CliError, MaskShapeError, cascade_mod.CascadeError) as exc:
        print(json.dumps({"schema_version": SCHEMA_VERSION,
                          "error": str(exc)}, indent=2))
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        return (EXIT_SHAPE if isinstance(exc, MaskShapeError)
                else EXIT_NO_CONVERGENCE)


if __name__ == "__main__":
    sys.exit(main())
