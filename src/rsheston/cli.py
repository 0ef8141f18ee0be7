"""Command-line front end: validate / solve / simulate / diagnose.

Config files are flat sections of ``key = value`` lines with ``#``
comments.  Per-state keys carry a 1-based suffix (theta.1, theta.2),
intensity entries a double suffix (q.1.2).  Example:

    [model]
    variant = smmh_rho
    T = 5.0
    delta = 0.3
    rho = -0.8
    kappa = 4.0
    chi = 0.35
    d = 1.7
    r.1 = 0.03
    r.2 = 0.01
    ...

    [chain]
    q.1.1 = -1.0909
    q.1.2 = 1.0909
    ...

Exit codes: 0 success, 1 domain or validation failure, 2 usage or parse
failure.  Every CSV starts with a comment line carrying the sha256 of
the config file and the seed in effect, and all numbers are printed
with 17 significant digits so runs can be diffed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, RsHestonError
from .markov_chain import MarkovChainSpec, validate_intensity
from .models import (
    HestonRegimeParams,
    Variant,
    validate_feller,
    validate_solution_assumptions,
)
from .regime_expectation import upsilon_heston, xi_mc_table, xi_ode
from .riccati import D_leverage, d_leverage_fn
from .simulate import (
    SimConfig,
    constant_strategy,
    expected_utility_controlled,
    expected_utility_mc,
    martingale_diagnostic,
    optimal_weight_fn,
    simulate_paths,
    terminal_wealth_histogram,
)
from .value_strategy import optimal_weights, value_mmh_table

__all__ = ["RunConfig", "load_config", "shipped_config", "main", "entry"]


def _column(values) -> list[str]:
    """CSV cells of a float array, flattened row-major: 17 significant digits, nan empty."""
    return ["" if x != x else f"{x:.17g}" for x in np.ravel(values).tolist()]


def _fmt(x: float) -> str:
    return _column(x)[0]


def parse_flat_config(text: str) -> dict[str, dict[str, str]]:
    """Parse the flat section/key=value grammar, raising line-anchored errors."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ParseError(f"malformed section header {raw.strip()!r}", ln)
            name = line[1:-1].strip()
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", ln)
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {raw.strip()!r}", ln)
        if current is None:
            raise ParseError("key outside any [section]", ln)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ParseError(f"empty key or value in {raw.strip()!r}", ln)
        if key in current:
            raise ParseError(f"duplicate key {key!r}", ln)
        current[key] = value
    return sections


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Fully deserialized run configuration."""

    params: HestonRegimeParams
    chain: MarkovChainSpec
    v0: float
    x0: float
    state0: int
    n_paths_xi: int
    seed: int
    n_paths: int
    steps_per_year: int
    sha256: str

    def sim_config(self, n_paths=None, steps_per_year=None, seed=None) -> SimConfig:
        return SimConfig(
            n_paths=self.n_paths if n_paths is None else n_paths,
            steps_per_year=self.steps_per_year if steps_per_year is None else steps_per_year,
            seed=self.seed if seed is None else seed,
            v0=self.v0,
            x0=self.x0,
            state0=self.state0,
        )


def _number(sec: dict[str, str], key: str, kind=float, default=None):
    """``kind(sec[key])``, or of ``default`` when given and the key is absent.

    A value that does not convert is a parse failure naming the key.
    """
    raw = sec[key] if default is None else sec.get(key, default)
    try:
        return kind(raw)
    except ValueError:
        raise ParseError(f"{key} = {raw!r} is not a valid {kind.__name__}") from None


def _floats_by_state(sec: dict[str, str], key: str, l: int) -> np.ndarray:
    if key in sec:
        if any(k.startswith(key + ".") for k in sec):
            raise ConfigError(f"[model] gives {key} both as a scalar and per state")
        return np.full(l, _number(sec, key))
    vals = np.empty(l)
    found = 0
    for e in range(1, l + 1):
        k = f"{key}.{e}"
        if k in sec:
            vals[e - 1] = _number(sec, k)
            found += 1
    if found == l:
        return vals
    raise ConfigError(f"[model] needs {key} as a scalar or all of {key}.1..{key}.{l}")


def load_config(path) -> RunConfig:
    """Read, parse and fully validate a config file into typed objects."""
    raw = Path(path).read_bytes()
    sections = parse_flat_config(raw.decode("utf-8"))
    for name in ("model", "chain", "initial"):
        if name not in sections:
            raise ConfigError(f"missing [{name}] section")
    chain_sec = sections["chain"]
    l = 0
    for key in chain_sec:
        parts = key.split(".")
        if len(parts) != 3 or parts[0] != "q" or not all(x.isdigit() and int(x) >= 1 for x in parts[1:]):
            raise ConfigError(f"[chain] keys look like q.i.j with i, j >= 1, got {key!r}")
        l = max(l, int(parts[1]), int(parts[2]))
    if l == 0:
        raise ConfigError("[chain] section defines no intensity entries")
    q = np.zeros((l, l))
    for key in chain_sec:
        _, i, j = key.split(".")
        q[int(i) - 1, int(j) - 1] = _number(chain_sec, key)
    chain = validate_intensity(q)

    model = sections["model"]
    try:
        variant = Variant(model.get("variant", ""))
    except ValueError:
        raise ConfigError("[model] variant must be one of mmh, smmh, smmh_rho") from None
    per_state = ["r", "nu", "kappa", "theta", "chi"]
    known = {"variant", "T", "delta", "rho"}
    if variant is Variant.MMH:
        per_state.append("lambda_hat")
    else:
        known.add("d")
    known.update(f"{key}{suffix}" for key in per_state for suffix in ["", *(f".{e}" for e in range(1, l + 1))])
    read = dict(model=known, chain=chain_sec, initial={"v0", "x0", "state0"})
    read.update(solver={"n_paths_xi", "seed"}, sim={"n_paths", "steps_per_year"})
    for name, sec in sections.items():
        if name not in read:
            raise ConfigError(f"unknown section [{name}]")
        for key in sec:
            if key not in read[name]:
                where = f" by variant {variant.value} with {l} states" if name == "model" else ""
                raise ConfigError(f"[{name}] key {key!r} is not read{where}")
    kwargs = dict(
        variant=variant,
        horizon=_number(model, "T"),
        delta=_number(model, "delta"),
        rho=_number(model, "rho", default="0"),
        r=_floats_by_state(model, "r", l),
        nu=_floats_by_state(model, "nu", l),
        kappa=_floats_by_state(model, "kappa", l),
        theta=_floats_by_state(model, "theta", l),
        chi=_floats_by_state(model, "chi", l),
    )
    if variant is Variant.MMH:
        kwargs["lam_hat"] = _floats_by_state(model, "lambda_hat", l)
    else:
        if "d" not in model:
            raise ConfigError("[model] separable variants need the scalar slope d")
        kwargs["d"] = _number(model, "d")
    params = HestonRegimeParams(**kwargs)

    initial = sections["initial"]
    v0, x0, state0 = _number(initial, "v0"), _number(initial, "x0"), _number(initial, "state0", int)
    if not (np.isfinite(v0) and v0 > 0.0):
        raise ConfigError(f"[initial] v0 must be finite and positive, got {v0}")
    if not (np.isfinite(x0) and x0 >= 0.0):
        raise ConfigError(f"[initial] x0 must be finite and nonnegative, got {x0}")
    if not 1 <= state0 <= l:
        raise ConfigError(f"[initial] state0 must be a state label in 1..{l}, got {state0}")
    solver = sections.get("solver", {})
    n_paths_xi = _number(solver, "n_paths_xi", int, default=10000)
    if n_paths_xi < 1:
        raise ConfigError(f"[solver] n_paths_xi must be >= 1, got {n_paths_xi}")
    seed = _number(solver, "seed", int, default=12345)
    if seed < 0:
        raise ConfigError(f"[solver] seed must be >= 0, got {seed}")
    sim = sections.get("sim", {})
    return RunConfig(
        params=params,
        chain=chain,
        v0=v0,
        x0=x0,
        state0=state0,
        n_paths_xi=n_paths_xi,
        seed=seed,
        n_paths=_number(sim, "n_paths", int, default=100000),
        steps_per_year=_number(sim, "steps_per_year", int, default=250),
        sha256=hashlib.sha256(raw).hexdigest(),
    )


def shipped_config(name: str) -> Path:
    """Path of a packaged example config (set1 or set2)."""
    return Path(resources.files("rsheston") / "configs" / f"{name}.cfg")


def _csv_writer(fh, cfg: RunConfig, seed: int, columns):
    """CSV writer after the header line: config sha256 and the seed the run used."""
    fh.write(f"# config_sha256={cfg.sha256} seed={seed}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    return writer


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    feller = validate_feller(cfg.params)
    solvable = validate_solution_assumptions(cfg.params)
    for check in feller.checks + solvable.checks:
        print(check.describe())
    ok = feller.ok and solvable.ok
    print(f"overall: {'pass' if ok else 'FAIL'} (vartheta = {_fmt(solvable.vartheta)})")
    return 0 if ok else 1


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    p = cfg.params
    if p.variant is Variant.MMH and args.xi_method is not None:
        raise ConfigError("--xi-method applies to smmh and smmh_rho only; mmh is solved by chain Monte Carlo")
    validate_feller(cfg.params).raise_if_failed()
    validate_solution_assumptions(p).raise_if_failed()
    times = np.linspace(0.0, p.horizon, args.t_grid)
    util = cfg.v0**p.delta / p.delta
    if p.variant is Variant.MMH:
        phi, _ = value_mmh_table(p, cfg.chain, times, cfg.v0, cfg.x0, cfg.n_paths_xi, cfg.seed)
        xi_vals = phi / util
        d_vals = np.full(len(times), np.nan)
    else:
        integrand = upsilon_heston(p, d_leverage_fn(p))
        if args.xi_method == "mc":
            xi = xi_mc_table(cfg.chain, integrand, times, cfg.n_paths_xi, cfg.seed)
        else:
            xi = xi_ode(cfg.chain, integrand, times=times)
        # every time is a table node on either route, so this reads the nodes
        xi_vals = np.column_stack([np.interp(times, xi.times, xi.values[:, e]) for e in range(p.n_states)])
        d_vals = D_leverage(p, times)
        # the separable value (v0**delta/delta) xi(t, e) exp{D(t) x0}, as value_smmh_rho
        phi = util * xi_vals * np.exp(d_vals * cfg.x0)[:, None]
    pi_mv, pi_h = optimal_weights(p, times)
    pi_total = pi_mv + pi_h
    l = p.n_states
    # one row per (time, state), time-major, each column formatted at once
    columns = (np.repeat(times, l), phi, xi_vals, np.repeat(d_vals, l), pi_mv, pi_h, pi_total)
    t_col, *cols = map(_column, columns)
    with open(args.out, "w", encoding="utf-8") as fh:
        writer = _csv_writer(fh, cfg, cfg.seed, ["t", "state", "phi", "xi", "D_or_B", "pi_mv", "pi_h", "pi_total"])
        writer.writerows(zip(t_col, list(range(1, l + 1)) * len(times), *cols))
    print(f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    p = cfg.params
    validate_feller(cfg.params).raise_if_failed()
    validate_solution_assumptions(p).raise_if_failed()
    sim_cfg = cfg.sim_config(n_paths=args.paths, steps_per_year=args.steps_per_year, seed=args.seed)
    started = time.perf_counter()
    bundle = simulate_paths(p, cfg.chain, optimal_weight_fn(p), sim_cfg, record="terminal")
    mean, err = expected_utility_controlled(bundle, p.delta)
    mean_cond, err_cond = expected_utility_mc(bundle, p.delta)
    runtime = time.perf_counter() - started
    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        writer = _csv_writer(
            fh, cfg, sim_cfg.seed,
            ["n_paths", "steps_per_year", "mean", "std_err", "mean_conditional", "std_err_conditional", "runtime_s"],
        )
        writer.writerow(
            [sim_cfg.n_paths, sim_cfg.steps_per_year, *map(_fmt, (mean, err, mean_cond, err_cond, runtime))]
        )
    edges = np.linspace(0.0, args.overflow_at, args.bins + 1)
    hist = terminal_wealth_histogram(bundle, edges)
    hist_path = out.with_name(out.stem + "_hist" + out.suffix)
    with open(hist_path, "w", encoding="utf-8") as fh:
        writer = _csv_writer(fh, cfg, sim_cfg.seed, ["bin_lo", "bin_hi", "count"])
        for i in range(len(hist.counts)):
            writer.writerow([_fmt(hist.bin_edges[i]), _fmt(hist.bin_edges[i + 1]), hist.counts[i]])
        writer.writerow([_fmt(hist.bin_edges[-1]), "inf", hist.overflow])
        fh.write(f"# q05={_fmt(hist.q05)} q95={_fmt(hist.q95)}\n")
    print(f"mean={_fmt(mean)} std_err={_fmt(err)} runtime_s={_fmt(runtime)}")
    print(f"wrote {out} and {hist_path}")
    return 0


def _parse_strategy(spec_str: str, p: HestonRegimeParams):
    if spec_str == "optimal":
        return optimal_weight_fn(p)
    if spec_str.startswith("const:"):
        try:
            weight = float(spec_str.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"--strategy {spec_str!r} is not of the form const:<w> with a number w") from None
        if not np.isfinite(weight):
            raise ConfigError(f"constant strategy weight must be finite, got {weight}")
        return constant_strategy(weight)
    raise ConfigError(f"unknown strategy {spec_str!r} (use optimal or const:<w>)")


def cmd_diagnose(args) -> int:
    cfg = load_config(args.config)
    p = cfg.params
    validate_feller(cfg.params).raise_if_failed()
    validate_solution_assumptions(p).raise_if_failed()
    sim_cfg = cfg.sim_config(n_paths=args.paths, seed=args.seed)
    rows = martingale_diagnostic(
        p, cfg.chain, sim_cfg, args.checkpoints, strategy=_parse_strategy(args.strategy, p)
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        writer = _csv_writer(fh, cfg, sim_cfg.seed, ["t", "mean_phi", "std_err", "z_score"])
        for t, mean, err, z in rows:
            writer.writerow([_fmt(t), _fmt(mean), _fmt(err), _fmt(z)])
    print(f"wrote {args.out}")
    return 0


def _int_at_least(low: int):
    """argparse type: an int of at least ``low``, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """argparse type: a finite, positive float, else a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value < np.inf:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {value}")
    return value


def _finite_floats(text: str) -> list[float]:
    """argparse type: a non-empty comma list of finite floats, else a usage error (exit 2)."""
    values = []
    for tok in text.split(","):
        try:
            value = float(tok)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {tok!r}") from None
        if not np.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        values.append(value)
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsheston",
        description="Regime-switching Heston optimal investment: validate, solve, simulate, diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check Feller and solvability conditions")
    sp.add_argument("config")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("solve", help="value function and strategy table as CSV")
    sp.add_argument("config")
    sp.add_argument("--t-grid", type=_int_at_least(1), default=51)
    sp.add_argument("--out", default="solve.csv")
    sp.add_argument("--xi-method", choices=("ode", "mc"), default=None)  # ode when omitted; mmh takes none
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("simulate", help="full Monte Carlo expected utility and histogram")
    sp.add_argument("config")
    sp.add_argument("--paths", type=int, default=None)
    sp.add_argument("--steps-per-year", type=int, default=None)
    sp.add_argument("--seed", type=_int_at_least(0), default=None)
    sp.add_argument("--out", default="simulate.csv")
    sp.add_argument("--bins", type=_int_at_least(1), default=30)
    sp.add_argument("--overflow-at", type=_positive_float, default=150.0)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("diagnose", help="value-process flatness along simulated paths")
    sp.add_argument("config")
    sp.add_argument("--checkpoints", type=_finite_floats, default="0,1,2,3,4,5")
    sp.add_argument("--strategy", default="optimal")
    sp.add_argument("--paths", type=int, default=None)
    sp.add_argument("--seed", type=_int_at_least(0), default=None)
    sp.add_argument("--out", default="diagnose.csv")
    sp.set_defaults(fn=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (RsHestonError, ValueError, KeyError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
