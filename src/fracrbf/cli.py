"""Command-line front end: forward/solve/evolve/qg runs, the verification
suite, and preset reproductions of the published experiment tables.

Configuration precedence: built-in defaults, then --config key=value file,
then explicit flags. Exit codes: 0 success, 1 usage or config problem,
2 numerical failure.
"""

import argparse
import functools
import inspect
import sys
from pathlib import Path

import numpy as np

from fracrbf.geometry import disk_grid, polar_layout, uniform_interval
from fracrbf.harness import (PRESETS, RunReport, RunRow, measurement_points, mixed_run,
                             residual_error, snapshot_files, steady_table, table_n, vortex_run,
                             write_files)
from fracrbf.oracles import case1, case1_datum, case2
from fracrbf.rbf import GmqBasis
from fracrbf.specialfun import FracParams
from fracrbf.steady import interpolate

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems exit 1 per the interface contract (argparse default is 2)
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


class _ConfigParser(_Parser):
    """Parser for the command line with the config file's entries spliced
    in; a bad entry is a configuration error (return 1), not a usage exit,
    and a key must name its flag in full."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(f"config file: {message}")


# every flag a subcommand may take, in help order; each subcommand
# registers only the ones it reads, so any other flag is a usage error
_FLAGS = {
    "config": dict(help="flat key=value file; flags override it"),
    "dim": dict(type=int, choices=(1, 2)),
    "alpha": dict(type=float),
    "eps": dict(type=float, help="absolute shape parameter"),
    "eps-factor": dict(type=float, help="shape parameter as a multiple of the node spacing"),
    "case": dict(choices=("smooth", "compact")),
    "p": dict(type=float, help="compact-profile power"),
    "L": dict(type=int, help="ring count of the polar layout"),
    "J": dict(type=int, help="angles per ring minus one"),
    "n": dict(type=int, help="interior point count (1D)"),
    "grid-h": dict(type=float, help="lattice step for disk grids"),
    "quad-K": dict(type=int, help="radial tail-quadrature order"),
    "quad-M": dict(type=int, help="angular tail-quadrature order"),
    "dt": dict(type=float),
    "t-end": dict(type=float),
    "chi": dict(type=float, help="nonlocal fraction of the mixed model"),
    "kappa": dict(type=float, help="dissipation strength"),
    "out": dict(help="output directory for CSV reports"),
    "seed": dict(type=int, help="seed for any randomized check"),
}
_STEADY_ONLY = ("dim", "case", "p", "n")
_TIME_ONLY = ("dt", "t-end", "chi", "kappa")
# flags a forward/solve sweep takes but the chosen --dim or --case never reads
_UNREAD = {("dim", 1): ("L", "J", "grid-h", "quad-M"), ("dim", 2): ("n",),
           ("case", "smooth"): ("p",)}


def _build_parser(parser_class=_Parser):
    top = parser_class(prog="fracrbf", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, summary, drop=(), keep=None):
        p = sub.add_parser(name, help=summary)
        for flag in keep or [f for f in _FLAGS if f not in drop]:
            p.add_argument("--" + flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    add("forward", functools.partial(_cmd_sweep, table=_forward_table),
        "interpolate an exact profile and sweep the forward-operator residual",
        drop=_TIME_ONLY + ("seed",))
    add("solve", functools.partial(_cmd_sweep, table=steady_table),
        "steady solve sweep: the convergence table's rows per N",
        drop=_TIME_ONLY + ("seed",))
    add("evolve", _cmd_evolve, "mixed local/nonlocal diffusion run",
        drop=_STEADY_ONLY + ("kappa", "seed"))
    add("qg", _cmd_qg, "quasi-geostrophic single-vortex run",
        drop=_STEADY_ONLY + ("chi", "seed"))
    add("verify", _cmd_verify, "oracle and property verification suite",
        keep=("config", "seed"))
    # a preset takes every flag and rejects, by name, those it has no parameter for
    add("preset", _cmd_preset, "reproduce a published experiment").add_argument(
        "name", choices=sorted(PRESETS))
    return top


def _read_config(path):
    """The file's key=value lines as --key=value flags."""
    flags = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, val = line.split("=", 1)
        flags.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    return flags


def _merge_config(args, argv):
    """Re-parse with the config entries ahead of the explicit flags, so each
    value goes through its flag's type and choices and the flags win."""
    if args.config is None:
        return args
    return _build_parser(_ConfigParser).parse_args(
        argv[:1] + _read_config(args.config) + argv[1:])


def _pick(value, default):
    return default if value is None else value


def _eps_for(args, ps, default_abs):
    if args.eps_factor is not None:
        return args.eps_factor * ps.spacing
    return _pick(args.eps, default_abs)


def _disk_set(args, default):
    """The 2D point set the flags pick: the lattice disk grid for --grid-h,
    the polar layout for --L or --J (--L defaults to 8, --J to L), and
    default() when none of them is given."""
    if args.grid_h is not None:
        if args.L is not None or args.J is not None:
            raise ValueError("--grid-h picks a lattice grid; it cannot be combined with --L or --J")
        return disk_grid(args.grid_h)
    if args.L is None and args.J is None:
        return default()
    lvl_l = _pick(args.L, 8)
    return polar_layout(lvl_l, _pick(args.J, lvl_l))


def _disk_problem(args, default_ps, default_eps):
    """(point set, basis) of evolve and qg; --quad-K/--quad-M set the tail rule."""
    ps = _disk_set(args, default_ps)
    return ps, GmqBasis(ps.points, FracParams(2, _pick(args.alpha, 1.0)),
                        _eps_for(args, ps, default_eps),
                        K=_pick(args.quad_K, 32), M=_pick(args.quad_M, 64))


def _print_report(rep):
    cols = ("N", "E", "rate", "Ehat", "rate", "cond", "seconds")
    print(f"[{rep.label}] " + " ".join(f"{k}={v}" for k, v in sorted(rep.meta.items())))
    print(" ".join(f"{c:>11}" for c in cols))
    for r in rep.rows:
        cells = [f"{r.n:>11d}"]
        for v in (r.e, r.rate_e, r.ehat, r.rate_ehat, r.cond):
            cells.append(f"{v:>11.3e}" if v is not None else f"{'-':>11}")
        cells.append(f"{r.seconds:>11.3f}")
        print(" ".join(cells))


# subcommands ------------------------------------------------------------------


def _case_funcs(args, kind, dim, alpha):
    """(exact, exterior profile or None) for case kind, exact(x) = (u, f)."""
    if kind == "smooth":
        return functools.partial(case1, dim, alpha), case1_datum(dim)
    return functools.partial(case2, dim, alpha, _pick(args.p, 1.0)), None


def _sweep(args, dim):
    """The point sets of a sweep: n = 2..32 interior points in 1D (or --n),
    polar layouts L = J = 3..9 on the disk (or the one set _disk_set picks)."""
    if dim == 1:
        if args.n is not None and args.n < 2:
            # the measurement grid of n interior nodes has n - 1 points
            raise ValueError(f"--n {args.n}: a 1D sweep needs n >= 2 interior nodes")
        ns = [2, 4, 8, 16, 32] if args.n is None else [args.n]
        return [uniform_interval(n + 2) for n in ns]
    ps = _disk_set(args, lambda: None)
    return [polar_layout(lvl, lvl) for lvl in (3, 5, 7, 9)] if ps is None else [ps]


def _forward_table(rep, alpha, layouts, exact, K, M, g):
    """Interpolate u at all N points of each layout; Ehat is the residual of
    the clipped operator at the measurement points. u is sampled without f,
    which has no closed form at the points on the boundary."""
    for ps, eps in layouts:
        basis = GmqBasis(ps.points, FracParams(ps.points.shape[1], alpha), eps, K=K, M=M)
        lam = interpolate(basis, exact(ps.points, f_required=False)[0])
        tp = measurement_points(ps)
        rep.add(RunRow(n=table_n(ps), ehat=residual_error(lam, basis, tp, exact(tp)[1], g)))
    return rep


def _cmd_sweep(args, table):
    """forward/solve: one report row per point set of the sweep."""
    dim = _pick(args.dim, 1)
    kind = _pick(args.case, "compact")
    unread = [f"--{flag}" for key in (("dim", dim), ("case", kind))
              for flag in _UNREAD.get(key, ()) if getattr(args, flag.replace("-", "_")) is not None]
    if unread:
        raise ValueError(f"--dim {dim} --case {kind} does not read {', '.join(unread)}")
    alpha = _pick(args.alpha, 1.2)
    kq, mq = _pick(args.quad_K, 48), _pick(args.quad_M, 96)
    exact, g = _case_funcs(args, kind, dim, alpha)
    eps_abs = 1.5 if dim == 1 else 1.0
    # under --eps-factor eps changes with every point set, so the factor is recorded
    eps_meta = (dict(eps=_pick(args.eps, eps_abs)) if args.eps_factor is None
                else dict(eps_factor=args.eps_factor))
    rep = RunReport(label=args.command, meta=dict(
        d=dim, alpha=alpha, case=kind, K=kq, **eps_meta, **(dict(M=mq) if dim == 2 else {})))
    table(rep, alpha, [(ps, _eps_for(args, ps, eps_abs)) for ps in _sweep(args, dim)], exact,
          kq, mq, g=g)
    _print_report(rep)
    if args.out is not None:
        print(f"wrote {rep.write(args.out).parent}")
    return 0


def _cmd_evolve(args):
    ps, basis = _disk_problem(args, lambda: polar_layout(8, 8), 1.0)
    (times, fields, _), = mixed_run(ps, basis, _pick(args.dt, 0.001), _pick(args.t_end, 0.5),
                                    (_pick(args.chi, 1.0),))
    for t, f in zip(times, fields):
        print(f"t={t:8.4f} peak={np.max(np.abs(f)):.6e}")
    if args.out is not None:
        write_files(args.out, snapshot_files(ps, times, fields, prefix="mixed"))
        print(f"wrote {args.out}")
    return 0


def _cmd_qg(args):
    ps, basis = _disk_problem(args, lambda: disk_grid(0.0625), 0.1)
    times, fields, ratios, _ = vortex_run(ps, basis, _pick(args.dt, 0.01), _pick(args.t_end, 2.0),
                                          _pick(args.kappa, 0.001))
    for t, f, r in zip(times, fields, ratios):
        print(f"t={t:8.4f} peak={np.max(np.abs(f)):.6e} anisotropy={r:.4f}")
    if args.out is not None:
        write_files(args.out, snapshot_files(ps, times, fields))
        print(f"wrote {args.out}")
    return 0


class VerifyError(Exception):
    pass


def _cmd_verify(args):
    # the suite and its adaptive quadrature load only when verify runs
    from fracrbf.checks import CHECKS
    for name, check, tol in CHECKS:
        # --seed reaches the checks that draw random cases
        seeded = args.seed is not None and "seed" in inspect.signature(check).parameters
        worst = check(seed=args.seed) if seeded else check()
        if not np.isfinite(worst) or worst > tol:
            raise VerifyError(f"{name}: worst deviation {worst:.3e} exceeds {tol:.0e}")
        print(f"ok {name} (worst {worst:.3e}, tol {tol:.0e})")
    print("verify: all checks passed")
    return 0


def _cmd_preset(args):
    fn = PRESETS[args.name]
    params = inspect.signature(fn).parameters
    kwargs, unmatched = {}, []
    for flag, val in vars(args).items():
        if val is None or flag in ("command", "func", "name", "config", "out"):
            continue
        param = {"quad_K": "K", "quad_M": "M"}.get(flag, flag)
        if param in params:
            kwargs[param] = val
        else:
            unmatched.append("--" + flag.replace("_", "-"))
    if unmatched:
        raise ValueError(f"preset {args.name} has no parameter for {', '.join(unmatched)}")
    rep = fn(**kwargs)
    _print_report(rep)
    path = rep.write(_pick(args.out, Path("runs") / args.name))
    print(f"wrote {path.parent}")
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    try:
        args = _merge_config(args, argv)
        if getattr(args, "eps", None) is not None and getattr(args, "eps_factor", None) is not None:
            raise ValueError("--eps and --eps-factor are mutually exclusive")
        return args.func(args)
    # LinAlgError subclasses ValueError, so numerical failures are caught first
    except (VerifyError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
