"""Scenario runner: JSON config in, CSV/JSON artifacts out.

A run config selects a grid, a flux model, sources, a horizon and a mode;
``run`` executes it and writes ``manifest.json`` (config echo, versions,
diagnostics summary, pass flags), a ``metrics.jsonl`` stream whose floats
are written by ``repr`` (so equal runs write equal bytes), and per-slice
field CSVs.  The config's keys are the parameters of what it builds
(``config_from_dict``).  Exit codes: 0 success, 2 config error, 3 solver
nonconvergence, 4 check failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy

from . import __version__
from . import discretization as disc
from . import expressions as ex
from . import flow_driver as fd
from .flux_models import _CATALOG, make_model
from .step_solver import StepConfig, StepNonConverged

__all__ = ["RunConfig", "ConfigError", "parse_config", "serialize_config",
           "run", "main", "PRESETS"]

class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


@dataclass
class RunConfig:
    """A run config; its fields are the config's top-level keys."""

    mode: str = "flow"
    grid: dict = field(default_factory=lambda: {"kind": "interval", "n": 32})
    model: dict = field(default_factory=lambda: {"id": "quadratic"})
    sources: dict = field(default_factory=dict)
    T: float = 1.0
    n: int | None = None
    h: float | None = None
    step: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    out_dir: str = "out"
    save_every: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("grid", "model", "sources", "step", "options"):
            setattr(self, name, dict(getattr(self, name)))
        self.T = float(self.T)
        self.save_every, self.seed = int(self.save_every), int(self.seed)
        self.out_dir = str(self.out_dir)

    @property
    def n_steps(self):
        if self.n is not None:
            return int(self.n)
        return int(round(self.T / self.h))


PRESETS = {
    "quadratic-1d": {
        "grid": {"kind": "interval", "n": 32},
        "model": {"id": "quadratic"},
        "sources": {"y0": "cos(2*pi*x)"},
        "T": 0.5, "n": 50,
    },
    "quadratic-2d": {
        "grid": {"kind": "rectangle", "nx": 8, "ny": 8},
        "model": {"id": "quadratic"},
        "sources": {"y0": "cos(pi*x)*cos(pi*y)"},
        "T": 0.25, "n": 25,
    },
    "plaplacian-1d": {
        "grid": {"kind": "interval", "n": 32},
        "model": {"id": "plaplacian", "p": 4.0},
        "sources": {"y0": "sin(pi*x)"},
        "T": 0.5, "n": 50,
    },
    "fractured-1d": {
        "grid": {"kind": "interval", "n": 32},
        "model": {"id": "fractured", "p": 4.0, "alpha": 1.0, "thresholds": 0.5},
        "sources": {"y0": "cos(pi*x)"},
        "T": 0.5, "n": 50,
        "step": {"lam_min": 1e-8},
    },
    "loggrowth-1d": {
        "grid": {"kind": "interval", "n": 32},
        "model": {"id": "loggrowth", "a": 1.0},
        "sources": {"y0": "cos(2*pi*x)"},
        "T": 0.5, "n": 50,
    },
    "tv-1d": {
        "grid": {"kind": "interval", "n": 32},
        "model": {"id": "tv", "rho": 1.0},
        "sources": {"y0": {"profile": "step", "split": 0.5}},
        "T": 0.2, "n": 40,
    },
    "constant-1d": {
        "grid": {"kind": "interval", "n": 8},
        "model": {"id": "quadratic"},
        "sources": {"y0": "1"},
        "T": 0.2, "n": 10,
    },
}

_SOURCE_KEYS = {"f", "g", "y0"}
_OPTION_KEYS = {"refinements", "perturbation", "T_long", "n_long", "tol"}


def _reject_unknown(d, allowed, where):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} at {where}")


def _check_arguments(spec, fn, where, **supplied):
    """ConfigError, naming the key, unless ``fn`` takes the keys of ``spec``
    as arguments, next to the ones its caller ``supplied``."""
    try:
        inspect.signature(fn).bind(**spec, **supplied)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _deep_merge(base, override):
    """``override`` merged into ``base`` key by key; a nested spec that
    names another builder (grid "kind", model "id" or "profile") than its
    base replaces it whole, so a preset's keys never reach another builder."""
    out = dict(base)
    for k, v in override.items():
        old = out.get(k)
        if isinstance(v, dict) and isinstance(old, dict) and all(
                v.get(n, old.get(n)) == old.get(n) for n in ("kind", "id", "profile")):
            out[k] = _deep_merge(old, v)
        else:
            out[k] = v
    return out


def _load_json(text):
    """The JSON object of a run config's text; ConfigError otherwise."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"PARSE error at line {exc.lineno}, column "
                          f"{exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def parse_config(path_or_text):
    """Parse and validate a JSON run config from a path or literal text."""
    text = path_or_text
    if isinstance(path_or_text, str) and os.path.exists(path_or_text):
        with open(path_or_text) as fh:
            text = fh.read()
    return config_from_dict(_load_json(text))


def config_from_dict(raw):
    """The ``RunConfig`` of a config dict, whose keys are its fields and
    "preset"; step keys are ``StepConfig``'s, grid and model keys the
    arguments of the grid kind's constructor and of the model's class."""
    raw = dict(raw)
    preset = raw.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; "
                              f"known: {sorted(PRESETS)}")
        raw = _deep_merge(PRESETS[preset], raw)
    try:
        cfg = RunConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"top level: {exc}") from None
    _reject_unknown(cfg.sources, _SOURCE_KEYS, "sources")
    _reject_unknown(cfg.options, _OPTION_KEYS, "options")
    _check_arguments(cfg.step, StepConfig, "step")
    grid = dict(cfg.grid)
    kind = grid.pop("kind", None)
    if kind in disc.GRID_KINDS:  # build_grid rejects any other kind
        _check_arguments(grid, disc.GRID_KINDS[kind], f"grid {kind!r}")
    params = dict(cfg.model)
    if "id" not in params:
        raise ConfigError("model needs an 'id' key")
    model_id = params.pop("id")
    if model_id in _CATALOG:  # make_model rejects any other id
        _check_arguments(params, _CATALOG[model_id], f"model {model_id!r}",
                         dimension=1)
    _validate(cfg)
    return cfg


def _validate(cfg):
    problems = []
    if cfg.mode not in _RUNNERS:
        problems.append(f"unknown mode {cfg.mode!r}; known: {tuple(_RUNNERS)}")
    if (cfg.n is None) == (cfg.h is None):
        problems.append("exactly one of 'n' or 'h' must be given")
    if cfg.h is not None and not 0 < cfg.h <= cfg.T:
        problems.append("'h' must lie in (0, T]")
    elif cfg.h is not None and cfg.n is None:
        ratio = cfg.T / cfg.h
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            problems.append(f"'h' = {cfg.h:g} does not divide T = {cfg.T:g}; "
                            f"the effective step would be T/{round(ratio)} = "
                            f"{cfg.T / round(ratio):.17g}")
    if cfg.n is not None and cfg.n < 1:
        problems.append("'n' must be a positive integer")
    if not cfg.T > 0:
        problems.append("'T' must be positive")
    if cfg.save_every < 1:
        problems.append("'save_every' must be >= 1")
    if cfg.mode == "tv" and cfg.model.get("id") != "tv":
        problems.append("mode 'tv' requires the 'tv' model")
    if problems:
        raise ConfigError("VALIDATION errors: " + "; ".join(problems))


def serialize_config(cfg):
    """Config as a plain dict; parse(serialize(cfg)) round-trips."""
    return asdict(cfg)


def _build(cfg):
    grid = disc.build_grid(cfg.grid)
    params = {k: v for k, v in cfg.model.items() if k != "id"}
    model = make_model(cfg.model["id"], dimension=grid.dimension, **params)
    y0_fn = ex.make_initial(cfg.sources.get("y0"), grid.dimension, cfg.seed)
    f = ex.make_source(cfg.sources.get("f"), grid.dimension, cfg.seed)
    g = ex.make_source(cfg.sources.get("g"), grid.dimension, cfg.seed)
    problem = fd.ProblemData(grid, y0_fn(grid.nodes), f, g, cfg.T, model)
    step_cfg = StepConfig(**cfg.step)
    return grid, model, problem, step_cfg


def _jsonable(x):
    """``x`` with numpy scalars and arrays, nested too, as Python ones."""
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in x]
    return x


class _Metrics:
    """JSON-lines writer, keys sorted and floats by ``repr`` (the shortest
    text that reads back as the same double): equal runs write equal bytes."""

    def __init__(self, path):
        self.fh = open(path, "w")

    def write(self, **row):
        self.fh.write(json.dumps(_jsonable(row), sort_keys=True) + "\n")

    def close(self):
        self.fh.close()


def _flow_metrics(metrics, traj, rep):
    """One row per field, its norms and energy read from the diagnostics
    record ``rep``."""
    for i in range(traj.n_steps + 1):
        row = {"step": i, "t": traj.times[i], "norm_domain": rep.norms_domain[i],
               "norm_boundary": rep.norms_boundary[i]}
        if i > 0:
            row["residual"] = traj.step_residuals[i - 1]
            row["certificate"] = traj.step_certificates[i - 1]
        if rep.energies is not None:
            row["energy"] = rep.energies[i]
        metrics.write(**row)


def run(cfg, verbose=False):
    """Execute a run config; returns the process exit code.

    With ``verbose`` the per-step solver iteration logs are appended to the
    metrics stream as additional JSON lines.
    """
    try:
        _, _, problem, step_cfg = _build(cfg)
    except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(cfg.out_dir, exist_ok=True)
    metrics = _Metrics(os.path.join(cfg.out_dir, "metrics.jsonl"))
    manifest = {
        "config": serialize_config(cfg),
        "versions": {
            "wentzellflow": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "mode": cfg.mode,
        "checks": {},
        "results": {},
    }
    try:
        code = _RUNNERS[cfg.mode](cfg, problem, step_cfg, metrics, manifest,
                                  verbose)
    except StepNonConverged as exc:
        manifest["failure"] = {"kind": "NONCONVERGED", "message": str(exc),
                               "residual": exc.residual}
        code = 3
    except (fd.IncompatibleData, fd.Inapplicable) as exc:
        manifest["failure"] = {"kind": type(exc).__name__, "message": str(exc)}
        code = 4
    finally:
        metrics.close()
    manifest["exit_code"] = code
    manifest["pass"] = code == 0
    with open(os.path.join(cfg.out_dir, "manifest.json"), "w") as fh:
        json.dump(_jsonable(manifest), fh, indent=1, sort_keys=True)
    return code


def _run_flow_mode(cfg, problem, step_cfg, metrics, manifest, verbose):
    traj = fd.run_flow(problem, cfg.n_steps, step_cfg,
                       obstacle=cfg.mode == "obstacle")
    if verbose:
        for i, stages in enumerate(traj.step_logs, start=1):
            for stage in stages:
                metrics.write(event="stage", step=i,
                              **{k: v for k, v in stage.items() if v is not None})
    rep = fd.stability_report(traj)
    checks = {"gronwall": rep.gronwall_pass}
    if problem.autonomous:
        er = fd.energy_trace(traj)
        checks["energy_monotone"] = er.monotone_pass
        checks["energy_dissipation"] = er.dissipation_pass
        manifest["results"]["energy_initial"] = float(er.energies[0])
        manifest["results"]["energy_final"] = float(er.energies[-1])
    if cfg.mode == "obstacle":
        checks["nonnegative"] = bool(traj.fields.min() >= -1e-12)
        checks["complementarity"] = bool(np.max(traj.step_residuals) <= 1e-6)
    _flow_metrics(metrics, traj, rep)
    fd.export_trajectory(traj, os.path.join(cfg.out_dir, "fields"),
                         cfg.save_every)
    manifest["results"]["diagnostics"] = rep.to_dict()
    manifest["checks"].update(checks)
    return 0 if all(checks.values()) else 4


def _run_convergence(cfg, problem, step_cfg, metrics, manifest, verbose):
    refinements = int(cfg.options.get("refinements", 3))
    base = cfg.n_steps
    ns = [base * 2 ** k for k in range(refinements + 1)]
    table = fd.convergence_study(problem, ns, step_cfg)
    for row in table.rows():
        metrics.write(**row)
    manifest["results"]["convergence"] = {
        "ns": table.ns, "r": table.r, "distances": table.distances,
        "orders": table.orders}
    if problem.model.kind == "quadratic":
        ok = bool(table.orders and min(table.orders) >= 0.8)
        manifest["checks"]["order_at_least_0.8"] = ok
    else:
        diffs = table.distances
        ok = all(b < a for a, b in zip(diffs[:-1], diffs[1:]))
        manifest["checks"]["distances_decreasing"] = ok
    return 0 if ok else 4


def _run_contraction(cfg, problem, step_cfg, metrics, manifest, verbose):
    grid = problem.grid
    pert = cfg.options.get("perturbation", {})
    y0_fn = ex.make_initial(pert.get("y0", cfg.sources.get("y0")),
                            grid.dimension, cfg.seed + 1)
    f = (ex.make_source(pert["f"], grid.dimension, cfg.seed + 1)
         if "f" in pert else problem.f)
    g = (ex.make_source(pert["g"], grid.dimension, cfg.seed + 1)
         if "g" in pert else problem.g)
    perturbed = fd.ProblemData(grid, y0_fn(grid.nodes), f, g, problem.T,
                               problem.model)
    rep = fd.contraction_check(problem, perturbed, cfg.n_steps, step_cfg)
    for m in range(rep.distances.size):
        metrics.write(step=m, distance_sq=rep.distances[m],
                      data_sq=rep.data_terms[m])
    manifest["results"]["contraction"] = {
        "c_empirical": rep.c_empirical,
        "pure_initial": rep.pure_initial,
    }
    manifest["checks"]["nonexpansive"] = rep.nonexpansive_pass
    return 0 if rep.nonexpansive_pass else 4


def _run_asymptotics(cfg, problem, step_cfg, metrics, manifest, verbose):
    t_long = float(cfg.options.get("T_long", 50.0 * problem.T))
    n_long = int(cfg.options.get("n_long", cfg.n_steps * 10))
    tol = float(cfg.options.get("tol", 1e-6))
    rep = fd.asymptotics_check(problem, t_long, n_long, step_cfg, tol)
    for m, d in enumerate(rep.distances):
        metrics.write(step=m, distance=d)
    manifest["results"]["asymptotics"] = {
        "final_distance": rep.final_distance,
        "eventually_decreasing": rep.eventually_decreasing,
    }
    manifest["checks"]["converges_to_equilibrium"] = rep.passed
    return 0 if rep.passed else 4


# mode -> its runner, which writes the metrics rows and manifest results
# and returns the exit code
_RUNNERS = {"flow": _run_flow_mode, "convergence": _run_convergence,
            "contraction": _run_contraction, "asymptotics": _run_asymptotics,
            "obstacle": _run_flow_mode, "tv": _run_flow_mode}


def _apply_overrides(raw, overrides):
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, val = item.split("=", 1)
        try:
            val = json.loads(val)
        except json.JSONDecodeError:
            pass  # keep the raw string
        target = raw
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"cannot override through non-object {part!r}")
        target[parts[-1]] = val
    return raw


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wentzellflow",
        description="Variational time stepping for parabolic flows with "
                    "dynamic boundary flux")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a JSON run config")
    runp.add_argument("config", help="path to a JSON config (or '-' for stdin)")
    runp.add_argument("--override", action="append", default=[],
                      metavar="KEY=VALUE", help="dotted-path config override")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--verbose", action="store_true",
                      help="echo progress to stderr")
    args = parser.parse_args(argv)

    try:
        if args.config == "-":
            text = sys.stdin.read()
        else:
            with open(args.config) as fh:
                text = fh.read()
        raw = _apply_overrides(_load_json(text), args.override)
        if args.out:
            raw["out_dir"] = args.out
        cfg = config_from_dict(raw)
    except (OSError, TypeError, ValueError) as exc:  # ConfigError: ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.verbose:
        print(f"running mode={cfg.mode} model={cfg.model.get('id')} "
              f"n={cfg.n_steps} out={cfg.out_dir}", file=sys.stderr)
    code = run(cfg, verbose=args.verbose)
    if args.verbose:
        print(f"exit code {code}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
