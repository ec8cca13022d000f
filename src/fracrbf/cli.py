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

from fracrbf.dynamics import (EvolutionConfig, anisotropy_ratio,
                              crank_nicolson_mixed, run_qg, write_snapshots)
from fracrbf.exterior import GmqProfile, exterior_data_correction
from fracrbf.geometry import disk_grid, polar_layout, uniform_interval
from fracrbf.harness import PRESETS, RunReport, RunRow, rms_error
from fracrbf.linsys import assemble, condition_estimate
from fracrbf.oracles import case1, case2, gmq_profile, hypersingular_oracle
from fracrbf.quadrature import gauss_legendre_01
from fracrbf.rbf import GmqBasis
from fracrbf.specialfun import FracParams, coeff_mu, gauss_2f1
from fracrbf.steady import (evaluate_interpolant, forward_frac_lap_clipped,
                            interpolate, solve_poisson, test_points_disk)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems exit 1 per the interface contract (argparse default is 2)
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _build_parser():
    top = _Parser(prog="fracrbf", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, time_flags=False):
        p.add_argument("--config", help="flat key=value file; flags override it")
        p.add_argument("--dim", type=int, choices=(1, 2))
        p.add_argument("--alpha", type=float)
        p.add_argument("--eps", type=float, help="absolute shape parameter")
        p.add_argument("--eps-factor", type=float,
                       help="shape parameter as a multiple of the node spacing")
        p.add_argument("--case", choices=("smooth", "compact"))
        p.add_argument("--p", type=float, help="compact-profile power")
        p.add_argument("--L", type=int, help="ring count of the polar layout")
        p.add_argument("--J", type=int, help="angles per ring minus one")
        p.add_argument("--n", type=int, help="interior point count (1D)")
        p.add_argument("--grid-h", type=float, help="lattice step for disk grids")
        p.add_argument("--quad-K", type=int, help="radial tail-quadrature order")
        p.add_argument("--quad-M", type=int, help="angular tail-quadrature order")
        if time_flags:
            p.add_argument("--dt", type=float)
            p.add_argument("--t-end", type=float)
            p.add_argument("--chi", type=float, help="nonlocal fraction of the mixed model")
            p.add_argument("--kappa", type=float, help="dissipation strength")
        p.add_argument("--out", help="output directory for CSV reports")
        p.add_argument("--seed", type=int, help="seed for any randomized check")

    p = sub.add_parser("forward", help="interpolate an exact profile and sweep "
                                       "the forward-operator residual")
    common(p)
    p.set_defaults(func=functools.partial(_cmd_sweep, row=_forward_row))

    p = sub.add_parser("solve", help="steady solve sweep: solution error and "
                                     "condition number per N")
    common(p)
    p.set_defaults(func=functools.partial(_cmd_sweep, row=_solve_row))

    p = sub.add_parser("evolve", help="mixed local/nonlocal diffusion run")
    common(p, time_flags=True)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("qg", help="quasi-geostrophic single-vortex run")
    common(p, time_flags=True)
    p.set_defaults(func=_cmd_qg)

    p = sub.add_parser("verify", help="oracle and property verification suite")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("preset", help="reproduce a published experiment")
    p.add_argument("name", choices=sorted(PRESETS))
    common(p, time_flags=True)
    p.set_defaults(func=_cmd_preset)
    return top


def _read_config(path):
    cfg = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, val = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _merge_config(args):
    """Fill unset flags from the config file (flags win)."""
    if getattr(args, "config", None) is None:
        return args
    cfg = _read_config(args.config)
    for key, val in cfg.items():
        if not hasattr(args, key):
            raise ValueError(f"unknown config key: {key}")
        if getattr(args, key) is None:
            cur_type = {"dim": int, "L": int, "J": int, "n": int, "quad_K": int,
                        "quad_M": int, "seed": int, "case": str, "out": str,
                        "name": str, "config": str}.get(key, float)
            setattr(args, key, cur_type(val))
    return args


def _pick(value, default):
    return default if value is None else value


def _eps_for(args, ps, default_abs):
    if args.eps_factor is not None:
        return args.eps_factor * ps.spacing
    return _pick(args.eps, default_abs)


def _disk_set(args):
    """Lattice disk grid when --grid-h is given, else the polar layout
    (--L rings, default 8; --J defaults to L)."""
    if args.grid_h is not None:
        return disk_grid(args.grid_h)
    lvl_l = _pick(args.L, 8)
    return polar_layout(lvl_l, _pick(args.J, lvl_l))


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


def _finish(rep, args):
    _print_report(rep)
    if args.out is not None:
        path = rep.write(args.out)
        print(f"wrote {path.parent}")
    return 0


# subcommands ------------------------------------------------------------------


def _case_funcs(args, dim, alpha):
    """(u sampler, f sampler, exterior profile or None) for the chosen case."""
    kind = _pick(args.case, "compact")
    if kind == "smooth":
        g = GmqProfile(np.zeros(dim), 1.0, -(dim + 1) / 2.0)
        return (lambda pts: case1(dim, alpha, pts, f_required=False)[0],
                lambda pts: case1(dim, alpha, pts)[1], g)
    p = _pick(args.p, 1.0)
    return (lambda pts: case2(dim, alpha, p, pts, f_required=False)[0],
            lambda pts: case2(dim, alpha, p, pts)[1], None)


def _sweep(args, dim):
    """(point set, measurement points) per sweep entry. Measurement points
    are the staggered companion grid in 1D and the polar lattice on the
    disk in 2D."""
    if dim == 1:
        for n in [2, 4, 8, 16, 32] if args.n is None else [args.n]:
            yield uniform_interval(n + 2), uniform_interval(n + 1).interior
    elif args.grid_h is not None or args.L is not None or args.J is not None:
        yield _disk_set(args), test_points_disk()
    else:
        for lvl in (3, 5, 7, 9):
            yield polar_layout(lvl, lvl), test_points_disk()


def _forward_row(ps, basis, tp, case, kq, mq):
    """Interpolate u at all N points; Ehat is the clipped-operator residual."""
    u_fn, f_fn, g = case
    lam = interpolate(ps, basis, u_fn(ps.points))
    target = f_fn(tp)
    if g is not None:
        # nonzero exterior data: the clipped operator approximates f
        # plus the tail of g, exactly as in the collocation rows
        target = target + exterior_data_correction(g, ps, basis.params,
                                                   K=kq, M=mq, points=tp)
    ehat = rms_error(target, forward_frac_lap_clipped(lam, basis, tp, K=kq, M=mq))
    return RunRow(n=ps.n_total, ehat=ehat)


def _solve_row(ps, basis, tp, case, kq, mq):
    """Collocation solve; E is the solution error at the measurement points."""
    u_fn, f_fn, g = case
    sm = assemble(ps, basis, K=kq, M=mq)
    lam, _ = solve_poisson(ps, basis, f_fn, g=g, K=kq, M=mq, system=sm)
    e = rms_error(u_fn(tp), evaluate_interpolant(lam, basis, tp))
    return RunRow(n=ps.n_total, e=e, cond=condition_estimate(sm))


def _cmd_sweep(args, row):
    """forward/solve: one report row per point set of the sweep."""
    dim = _pick(args.dim, 1)
    alpha = _pick(args.alpha, 1.2)
    kq = _pick(args.quad_K, 48)
    mq = _pick(args.quad_M, 96)
    case = _case_funcs(args, dim, alpha)
    rep = RunReport(label=args.command, meta=dict(
        d=dim, alpha=alpha, case=_pick(args.case, "compact"), K=kq, M=mq))
    for ps, tp in _sweep(args, dim):
        eps = _eps_for(args, ps, 1.5 if dim == 1 else 1.0)
        basis = GmqBasis(ps.points, FracParams(dim, alpha), eps)
        rep.add(row(ps, basis, tp, case, kq, mq), dim=dim)
        rep.meta["eps"] = eps
    return _finish(rep, args)


def _cmd_evolve(args):
    alpha = _pick(args.alpha, 1.0)
    ps = _disk_set(args)
    eps = _eps_for(args, ps, 1.0)
    basis = GmqBasis(ps.points, FracParams(2, alpha), eps)
    t_end = _pick(args.t_end, 0.5)
    cfg = EvolutionConfig(
        dt=_pick(args.dt, 0.001), t_end=t_end, chi=_pick(args.chi, 1.0),
        snapshot_times=tuple(np.round(np.linspace(0.0, t_end, 6)[1:-1], 12)))
    u0 = lambda pts: np.exp(-16.0 * pts[:, 0] ** 2 - 4.0 * pts[:, 1] ** 2)
    times, fields = crank_nicolson_mixed(
        ps, basis, cfg, u0, K=_pick(args.quad_K, 32), M=_pick(args.quad_M, 64))
    for t, f in zip(times, fields):
        print(f"t={t:8.4f} peak={np.max(np.abs(f)):.6e}")
    if args.out is not None:
        write_snapshots(args.out, ps, times, fields, prefix="mixed")
        print(f"wrote {args.out}")
    return 0


def _cmd_qg(args):
    alpha = _pick(args.alpha, 1.0)
    ps = disk_grid(_pick(args.grid_h, 0.0625)) if args.L is None \
        else polar_layout(args.L, _pick(args.J, args.L))
    eps = _eps_for(args, ps, 0.1)
    basis = GmqBasis(ps.points, FracParams(2, alpha), eps)
    t_end = _pick(args.t_end, 2.0)
    cfg = EvolutionConfig(
        dt=_pick(args.dt, 0.01), t_end=t_end, kappa=_pick(args.kappa, 0.001),
        snapshot_times=tuple(np.round(np.arange(1, 8) * t_end / 8.0, 12)))
    theta0 = lambda pts: np.exp(-4.0 * pts[:, 0] ** 2 - 64.0 * pts[:, 1] ** 2)
    times, fields = run_qg(ps, basis, cfg, theta0, out_dir=args.out,
                           K=_pick(args.quad_K, 32), M=_pick(args.quad_M, 64))
    for t, f in zip(times, fields):
        print(f"t={t:8.4f} peak={np.max(np.abs(f)):.6e} "
              f"anisotropy={anisotropy_ratio(ps.interior, f):.4f}")
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0


class VerifyError(Exception):
    pass


def _cmd_verify(args):
    seed = _pick(args.seed, 11)

    def check(name, worst, tol):
        if not np.isfinite(worst) or worst > tol:
            raise VerifyError(f"{name}: worst deviation {worst:.3e} exceeds {tol:.0e}")
        print(f"ok {name} (worst {worst:.3e}, tol {tol:.0e})")

    # Gauss rules integrate monomials up to degree 2K-1 exactly
    worst = 0.0
    for k in (4, 8, 16, 32):
        rule = gauss_legendre_01(k)
        degs = np.arange(2 * k)
        vals = rule.weights @ np.power.outer(rule.nodes, degs)
        worst = max(worst, float(np.max(np.abs(vals - 1.0 / (degs + 1.0)))))
    check("gauss-exactness", worst, 1e-13)

    # hypergeometric series vs closed forms
    zs = np.linspace(0.05, 0.95, 19)
    worst = max(abs(gauss_2f1(1.0, 1.0, 2.0, z) + np.log1p(-z) / z) for z in zs)
    for a in (0.3, 1.7):
        worst = max(worst, max(abs(gauss_2f1(a, 0.8, 0.8, z) - (1.0 - z) ** (-a))
                               for z in zs))
    check("hypergeometric-closed-forms", worst, 1e-10)

    # operator identity against the brute-force singular integral
    worst = 0.0
    for d, alpha in ((1, 1.2), (2, 1.0)):
        prof = gmq_profile(d, alpha, 1.0)
        prm = FracParams(d, alpha)
        for off in (0.0, 0.31, 0.57):
            x = np.full(d, off)
            ref = coeff_mu(prm) * (1.0 + off * off * d) ** (-(alpha + d) / 2.0)
            got = hypersingular_oracle(prof, d, alpha, x)
            worst = max(worst, abs(got - ref) / abs(ref))
    check("pseudo-spectral-identity", worst, 1e-4)

    # manufactured coefficients round-trip through assembled systems
    rng = np.random.default_rng(seed)
    worst = 0.0
    for ps, d in ((uniform_interval(12), 1), (polar_layout(3, 7), 2)):
        basis = GmqBasis(ps.points, FracParams(d, 1.2), 1.0)
        sm = assemble(ps, basis, K=32, M=48)
        lam_star = rng.standard_normal(ps.n_total)
        lam = sm.solve(sm.s @ lam_star)
        worst = max(worst, float(np.linalg.norm(lam - lam_star)
                                 / np.linalg.norm(lam_star)))
    check("manufactured-coefficients", worst, 1e-10)

    # error metric sanity
    worst = max(abs(rms_error([1.0, 0.0], [0.0, 0.0]) - 1.0),
                abs(rms_error([3.0, 4.0], [3.0, 0.0]) - 0.8))
    check("rms-error-examples", worst, 1e-15)
    print("verify: all checks passed")
    return 0


def _cmd_preset(args):
    fn = PRESETS[args.name]
    sig = inspect.signature(fn)
    kwargs = {}
    for flag, param in (("alpha", "alpha"), ("eps", "eps"), ("quad_K", "K"),
                        ("quad_M", "M"), ("dt", "dt"), ("t_end", "t_end"),
                        ("kappa", "kappa"), ("grid_h", "grid_h"), ("out", "out")):
        val = getattr(args, flag, None)
        if val is not None and param in sig.parameters:
            kwargs[param] = val
    rep = fn(**kwargs)
    _print_report(rep)
    out = _pick(args.out, str(Path("runs") / args.name))
    path = rep.write(out)
    print(f"wrote {path.parent}")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _merge_config(args)
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
