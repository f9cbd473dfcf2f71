"""Command-line interface.

Every subcommand prints CSV or JSON (``--format``), to stdout or to
``--out``.  Output is deterministic: floats are rendered with 17
significant digits, line endings are LF, and rows follow the documented
column order, so repeated runs are byte-identical.

Exit codes: 0 success, 1 usage error, 2 iteration failure
(NoConvergence), 3 singular coupling parameters.
"""

import argparse
import json
import re
import sys

from .analysis import (_check_count, _check_tolerance, continuum_convergence,
                       critical_zeta, endpoint_locus, sweep_xi, sweep_zeta)
from .errors import NoConvergence, SingularParameters
from .metric import (FAMILIES, dieudonne_nullspace, hermitian_eigenvalues,
                     verify_metric)
from .model import ModelParams
from .spectrum import solve_spectrum, wavefunction

_SPECTRAL_HEADER = ("axis", "index", "re_E", "im_E", "is_real")
_EIGEN_HEADER = ("axis", "index", "eigenvalue")
# Every metric family parameter, each a float flag of metric and verify.
_FAMILY_PARAMS = tuple(dict.fromkeys(
    name for family in FAMILIES.values() for name, _ in family.params))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-3" and "-inf" as flags, not negative numbers:
        # its pattern has no exponent and no inf or nan (Python 3.10-3.12),
        # and repr of a small float has an exponent.  float() takes
        # inf, infinity and nan in any case; the finiteness checks then
        # name the flag.
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf|infinity|nan)$",
            re.IGNORECASE)

    # argparse exits with status 2 on bad flags; route through the
    # package-wide convention (1) instead.
    def error(self, message):
        raise _UsageError(message)


def _g(x):
    return format(float(x), ".17g")


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(header, rows, out):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _emit("\n".join(lines) + "\n", out)


def _emit_json(obj, out):
    _emit(json.dumps(obj, indent=2) + "\n", out)


def _c2(value):
    """Complex number as a [re, im] pair for JSON."""
    value = complex(value)
    return [value.real, value.imag]


def _add_coupling_flags(sub):
    sub.add_argument("--xi", type=float, default=None,
                     help="Robin coupling strength (needs --zeta)")
    sub.add_argument("--zeta", type=float, default=None,
                     help="Robin detuning (needs --xi)")
    sub.add_argument("--omega", type=float, default=None,
                     help="Cartesian coupling, z = 1 + rho + i omega")
    sub.add_argument("--rho", type=float, default=None,
                     help="Cartesian real shift (default 0)")


def _add_family_flags(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--family", required=True, choices=tuple(FAMILIES))
    for name in _FAMILY_PARAMS:
        sub.add_argument(f"--{name}", type=float, default=None)


def _add_convention_flag(sub):
    sub.add_argument("--convention", choices=("lattice", "shifted"),
                     default="lattice", help="energy convention")


def _add_output_flags(sub, fmt_default="csv"):
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"),
                     default=fmt_default, help="output format")


def _coupling_kwargs(args):
    robin = args.xi is not None or args.zeta is not None
    cart = args.omega is not None or args.rho is not None
    if robin and cart:
        raise _UsageError("give either --xi/--zeta or --omega/--rho, "
                          "not a mixture")
    if robin:
        if args.xi is None or args.zeta is None:
            raise _UsageError("the Robin style needs both --xi and --zeta")
        return {"xi": args.xi, "zeta": args.zeta}
    if cart:
        if args.omega is None:
            raise _UsageError("--rho needs --omega")
        return {"omega": args.omega,
                "rho": args.rho if args.rho is not None else 0.0}
    raise _UsageError("no coupling given: use --xi/--zeta or --omega")


def _params_json(params):
    if params.coupling_style == "xizeta":
        return {"xi": params.xi, "zeta": params.zeta}
    return {"omega": params.omega, "rho": params.rho}


def _axis_value(params):
    return params.xi if params.coupling_style == "xizeta" else params.omega


def _cmd_spectrum(args):
    params = ModelParams(n=args.n, convention=args.convention,
                         **_coupling_kwargs(args))
    spec = solve_spectrum(params)
    if args.format == "csv":
        axis = _g(_axis_value(params))
        rows = [(axis, str(i), _g(e.real), _g(e.imag),
                 "1" if bool(r) else "0")
                for i, (e, r) in enumerate(zip(spec.energies, spec.is_real))]
        _emit_rows(_SPECTRAL_HEADER, rows, args.out)
    else:
        _emit_json({
            "n": params.n,
            "params": _params_json(params),
            "convention": params.convention,
            "results": [{"y": _c2(y), "energy": _c2(e), "is_real": bool(r)}
                        for y, e, r in zip(spec.y_roots, spec.energies,
                                           spec.is_real)],
        }, args.out)
    return 0


def _cmd_wavefn(args):
    params = ModelParams(n=args.n, convention=args.convention,
                         **_coupling_kwargs(args))
    if not 0 <= args.index < params.n:
        raise _UsageError(f"--index must be in [0, {params.n - 1}]")
    spec = solve_spectrum(params)
    wf = wavefunction(params, spec.y_roots[args.index])
    if args.format == "csv":
        rows = [(str(m + 1), _g(c.real), _g(c.imag))
                for m, c in enumerate(wf.components)]
        _emit_rows(("site", "re_phi", "im_phi"), rows, args.out)
    else:
        _emit_json({
            "n": params.n,
            "params": _params_json(params),
            "convention": params.convention,
            "index": args.index,
            "y": _c2(wf.y),
            "energy": _c2(wf.energy),
            "residual": wf.residual,
            "components": [_c2(c) for c in wf.components],
        }, args.out)
    return 0


def _build_family(args):
    family = FAMILIES[args.family]
    given = {name: getattr(args, name) for name in _FAMILY_PARAMS
             if getattr(args, name) is not None}
    params = family.bind(args.n, given, flag="--")
    return family, family.build(args.n, **params)


def _cmd_metric(args):
    family, theta = _build_family(args)
    eigs = hermitian_eigenvalues(theta)
    if args.format == "csv":
        axis = _g(theta.params[family.swept])
        rows = [(axis, str(i), _g(e)) for i, e in enumerate(eigs)]
        _emit_rows(_EIGEN_HEADER, rows, args.out)
    else:
        _emit_json({
            "n": theta.n,
            "family": theta.family,
            "params": theta.params,
            "eigenvalues": [float(e) for e in eigs],
            "min_eigenvalue": float(eigs[0]),
            "positive_definite": bool(eigs[0] > 0.0),
        }, args.out)
    return 0


def _cmd_verify(args):
    family, theta = _build_family(args)
    params = ModelParams(n=args.n, **{family.swept: theta.params[family.swept],
                                      family.held: 0.0})
    report = verify_metric(params, theta)
    spec = solve_spectrum(params, with_wavefunctions=True)
    max_res = max(w.residual for w in spec.wavefunctions)
    payload = {
        "n": report.n,
        "family": report.family,
        "params": report.params,
        "dieudonne_residual": report.dieudonne_residual,
        "min_metric_eigenvalue": report.min_eigenvalue,
        "positive_definite": report.positive_definite,
        "max_wavefn_residual": max_res,
    }
    if args.format == "csv":
        rows = [("n", str(payload["n"])),
                ("family", payload["family"]),
                ("params", ";".join(f"{k}={_g(v)}"
                                    for k, v in payload["params"].items())),
                ("dieudonne_residual", _g(payload["dieudonne_residual"])),
                ("min_metric_eigenvalue",
                 _g(payload["min_metric_eigenvalue"])),
                ("positive_definite",
                 "1" if payload["positive_definite"] else "0"),
                ("max_wavefn_residual", _g(payload["max_wavefn_residual"]))]
        _emit_rows(("field", "value"), rows, args.out)
    else:
        _emit_json(payload, args.out)
    return 0


def _cmd_nullspace(args):
    params = ModelParams(n=args.n, **_coupling_kwargs(args))
    basis = dieudonne_nullspace(params, tol_rank=args.tol_rank)
    if args.format == "csv":
        rows = []
        for k, element in enumerate(basis):
            for i in range(args.n):
                for j in range(args.n):
                    entry = element.matrix[i, j]
                    rows.append((str(k), str(i), str(j),
                                 _g(entry.real), _g(entry.imag)))
        _emit_rows(("element", "row", "col", "re", "im"), rows, args.out)
    else:
        _emit_json({
            "n": args.n,
            "params": _params_json(params),
            "tol_rank": args.tol_rank,
            "dimension": len(basis),
            "elements": [[[_c2(v) for v in row] for row in b.matrix]
                         for b in basis],
        }, args.out)
    return 0


def _cmd_sweep(args):
    if args.axis == "xi":
        if args.zeta is None:
            raise _UsageError("sweep over xi needs a fixed --zeta")
        if args.xi is not None:
            raise _UsageError("--xi conflicts with --axis xi")
        result = sweep_xi(args.n, args.zeta, args.min, args.max, args.steps,
                          convention=args.convention)
    else:
        if args.xi is None:
            raise _UsageError("sweep over zeta needs a fixed --xi")
        if args.zeta is not None:
            raise _UsageError("--zeta conflicts with --axis zeta")
        result = sweep_zeta(args.n, args.xi, args.min, args.max, args.steps,
                            convention=args.convention)
    if args.format == "csv":
        rows = []
        for value, energies, flags in zip(result.values, result.energies,
                                          result.is_real):
            axis = _g(value)
            rows.extend((axis, str(i), _g(e.real), _g(e.imag),
                         "1" if bool(r) else "0")
                        for i, (e, r) in enumerate(zip(energies, flags)))
        _emit_rows(_SPECTRAL_HEADER, rows, args.out)
    else:
        _emit_json({
            "n": result.n,
            "axis": result.axis,
            "fixed": result.fixed,
            "convention": result.convention,
            "values": [float(v) for v in result.values],
            "energies": [[_c2(e) for e in row] for row in result.energies],
            "is_real": [[bool(r) for r in row] for row in result.is_real],
        }, args.out)
    return 0


def _cmd_critical(args):
    # The value is exact and does not depend on --xi-steps or --zeta-tol;
    # both are still checked, so that existing calls keep working, and the
    # output keeps its schema: xi_steps is echoed, the bracket is
    # [value, value].
    _check_tolerance("zeta_tol", args.zeta_tol)
    _check_count("xi_steps", args.xi_steps)
    result = critical_zeta(args.n, xi_max=args.xi_max)
    if args.format == "csv":
        rows = [(str(result.n), _g(result.value), _g(result.value),
                 _g(result.value), _g(result.xi_max), str(args.xi_steps))]
        _emit_rows(("n", "value", "bracket_lo", "bracket_hi", "xi_max",
                    "xi_steps"), rows, args.out)
    else:
        _emit_json({
            "n": result.n,
            "value": result.value,
            "bracket": [result.value, result.value],
            "xi_max": result.xi_max,
            "xi_steps": args.xi_steps,
        }, args.out)
    return 0


def _cmd_continuum(args):
    try:
        ms = [int(tok) for tok in args.m.split(",") if tok]
    except ValueError:
        raise _UsageError("--m must be a comma-separated integer list")
    if not ms:
        raise _UsageError("--m must name at least one size")
    table = continuum_convergence(ms, levels=args.levels)
    doubling = all(b == 2 * a for a, b in zip(ms, ms[1:])) and len(ms) > 1
    if args.format == "csv":
        rows = []
        for i, m in enumerate(table.ms):
            for k in range(table.levels):
                rows.append((str(m), str(k), _g(table.energies[i, k]),
                             _g(table.rescaled[i, k]), _g(table.targets[k])))
        _emit_rows(("m", "level", "energy", "rescaled", "target"),
                   rows, args.out)
    else:
        payload = {
            "ms": table.ms,
            "levels": table.levels,
            "energies": [[float(v) for v in row] for row in table.energies],
            "rescaled": [[float(v) for v in row] for row in table.rescaled],
            "targets": [float(v) for v in table.targets],
            "richardson": ([float(v) for v in table.richardson()]
                           if doubling else None),
        }
        _emit_json(payload, args.out)
    return 0


def _cmd_locus(args):
    result = endpoint_locus(args.n, samples=args.samples)
    if args.format == "csv":
        rows = []
        for branch in (result.y_plus, result.y_minus):
            rows.extend((branch.name, _g(t), _g(zt), _g(x))
                        for t, zt, x in zip(branch.t, branch.zeta, branch.xi))
        _emit_rows(("branch", "t", "zeta", "xi"), rows, args.out)
    else:
        _emit_json({
            "n": result.n,
            "branches": {
                b.name: {"t": [float(v) for v in b.t],
                         "zeta": [float(v) for v in b.zeta],
                         "xi": [float(v) for v in b.xi]}
                for b in (result.y_plus, result.y_minus)
            },
        }, args.out)
    return 0


def _build_parser():
    parser = _Parser(prog="hermitize",
                     description="Spectra and metric operators of the "
                                 "endpoint-coupled discrete square well")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("spectrum", help="eigenvalues at one coupling")
    p.add_argument("--n", type=int, required=True)
    _add_coupling_flags(p)
    _add_convention_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_spectrum)

    p = subs.add_parser("wavefn", help="eigenvector at one coupling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--index", type=int, default=0,
                   help="root index in sorted order")
    _add_coupling_flags(p)
    _add_convention_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_wavefn)

    p = subs.add_parser("metric", help="metric family eigenvalues")
    _add_family_flags(p)
    _add_output_flags(p, fmt_default="csv")
    p.set_defaults(func=_cmd_metric)

    p = subs.add_parser("verify",
                        help="check a metric family against its Hamiltonian")
    _add_family_flags(p)
    _add_output_flags(p, fmt_default="json")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("nullspace",
                        help="all Hermitian intertwiners of one coupling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol-rank", type=float, default=1e-10)
    _add_coupling_flags(p)
    _add_output_flags(p, fmt_default="json")
    p.set_defaults(func=_cmd_nullspace)

    p = subs.add_parser("sweep", help="spectra along a parameter grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--axis", required=True, choices=("xi", "zeta"))
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--xi", type=float, default=None,
                   help="fixed xi for --axis zeta")
    p.add_argument("--zeta", type=float, default=None,
                   help="fixed zeta for --axis xi")
    _add_convention_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("critical",
                        help="largest zeta with an all-real spectrum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi-max", type=float, default=10.0)
    p.add_argument("--xi-steps", type=int, default=2000,
                   help="checked and echoed; the value does not use it")
    p.add_argument("--zeta-tol", type=float, default=1e-5,
                   help="checked; the value does not use it")
    _add_output_flags(p, fmt_default="json")
    p.set_defaults(func=_cmd_critical)

    p = subs.add_parser("continuum",
                        help="hard-wall chain versus the continuum box")
    p.add_argument("--m", required=True,
                   help="comma-separated half sizes, e.g. 50,100,200")
    p.add_argument("--levels", type=int, default=2)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_continuum)

    p = subs.add_parser("locus",
                        help="closed-form loci with a root at y = +/-1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=20)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_locus)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularParameters as exc:
        # Must precede ValueError: SingularParameters subclasses it.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
