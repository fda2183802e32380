"""Run configuration: flat ``key = value`` entries under ``[section]`` headers.

Grammar (documented in docs/config.md):

  - lines are ``key = value`` inside a ``[section]``; '#' starts a comment
  - values parse as int, float, true/false, ``[v1, v2, ...]`` numeric lists,
    or bare strings
  - ``--override section.key=value`` replaces entries after parsing

Sections: [grid] (dim, n, extent), [scheme] (kappa, epsilon, p, dt and the
iteration cap fp_max_iter), [potential] (potential = double_well or a coefficient
list, lambda), [initial] (preset and its parameters), [run] (t_end, outdir),
and optionally [experiment] for the sweep/refine/weakstrong drivers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import Grid
from .potential import Potential, PotentialValidationError, check_convexity
from .stepper import SchemeConfig

__all__ = ["RunConfig", "SECTION_KEYS", "parse_config_text", "apply_overrides", "build_run_config",
           "load_config", "render_config", "coerce", "format_value"]

_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_INT = re.compile(r"^[+-]?\d+$")

_SCHEME_KINDS = {**dict.fromkeys(("dt", "kappa", "epsilon", "p"), float), "fp_max_iter": int}

# [experiment] keys: element type, and whether the value is a list of them
_EXPERIMENT_KINDS = {
    "kind": (str, False),
    "eps_values": (float, True),
    "levels": (int, True),
    "deltas": (float, True),
    "monitor": (str, False),
    "M": (float, False),
}

# The keys each section accepts. [initial] accepts the keys of every preset, so
# a config that switches presets by override may keep the old preset's keys.
SECTION_KEYS: dict[str, tuple[str, ...]] = {
    "grid": ("dim", "n", "extent"),
    "scheme": tuple(_SCHEME_KINDS),
    "potential": ("potential", "lambda"),
    "initial": ("preset", "phi_t", "theta0", "phi0", "theta_base", "theta_amp", "phi_base", "phi_amp", "seed",
                "phi_star", "theta_file", "phi_file"),
    "run": ("t_end", "outdir"),
    "experiment": tuple(_EXPERIMENT_KINDS),
}


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(tok) for tok in inner.split(",")]
    if _INT.match(text):
        return int(text)
    if _NUMBER.match(text):
        return float(text)
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    return text


def coerce(raw, kind, where: str, many: bool = False):
    """kind(raw), or [kind(x) for x in raw] when many; a ConfigError naming the
    entry ``where`` (section.key) when that fails, gives nan or inf, reads a bool
    as a number, or changes the value (an int from 16.5; 64.0 gives 64)."""
    items = raw if many else [raw]
    try:
        out = [kind(x) for x in items]
        if (not many or isinstance(raw, list)) and all(
                math.isfinite(y) and not isinstance(x, bool) and (kind is not int or x == y) for x, y in zip(items, out)):
            return out if many else out[0]
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{where} = {format_value(raw)}: expected {'a list of ' * many}{kind.__name__}")


def format_value(v) -> str:
    """A value as text, in manifests, CSV cells and messages: a bool (numpy's too)
    as true/false, a float by repr, a list or tuple as [a, b, ...]."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(map(format_value, v)) + "]"
    return str(v)


def parse_config_text(text: str) -> dict[str, dict]:
    sections: dict[str, dict] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: entry outside any [section]")
        key, val = line.split("=", 1)
        sections[current][key.strip()] = _parse_value(val)
    return sections


def apply_overrides(sections: dict[str, dict], overrides: list[str]) -> dict[str, dict]:
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} is not of the form section.key=value")
        target, val = ov.split("=", 1)
        if "." not in target:
            raise ConfigError(f"override {ov!r} is not of the form section.key=value")
        sec, key = target.split(".", 1)
        sections.setdefault(sec.strip(), {})[key.strip()] = _parse_value(val)
    return sections


def render_config(sections: dict[str, dict]) -> str:
    """Deterministic round-trippable rendering, used for manifests."""
    lines = []
    for sec in sections:
        lines.append(f"[{sec}]")
        for key, val in sections[sec].items():
            lines.append(f"{key} = {format_value(val)}")
        lines.append("")
    return "\n".join(lines)


@dataclass
class RunConfig:
    grid: Grid
    scheme: SchemeConfig
    potential: Potential
    initial: dict
    t_end: float
    outdir: str | None = None
    experiment: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)


def _build_grid(sec: dict) -> Grid:
    dim = coerce(sec.get("dim", 1), int, "grid.dim")
    if dim not in (1, 2):
        raise ConfigError(f"grid.dim = {dim}: must be 1 or 2")
    n = sec.get("n", 64)
    extent = sec.get("extent", 1.0)
    ns = tuple(coerce(n if isinstance(n, list) else [n] * dim, int, "grid.n", many=True))
    exts = tuple(coerce(extent if isinstance(extent, list) else [extent] * dim, float, "grid.extent", many=True))
    if len(ns) != dim or len(exts) != dim:
        raise ConfigError(f"[grid] dim={dim} inconsistent with n={n}, extent={extent}")
    try:
        return Grid(ns, exts)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_scheme(sec: dict) -> SchemeConfig:
    if "dt" not in sec:
        raise ConfigError("[scheme] must set dt")
    return SchemeConfig(**{k: coerce(sec[k], kind, f"scheme.{k}") for k, kind in _SCHEME_KINDS.items() if k in sec})


def _build_potential(sec: dict) -> Potential:
    spec = sec.get("potential", "double_well")
    lam = coerce(sec.get("lambda", 4.0), float, "potential.lambda")
    try:
        if isinstance(spec, list):
            pot = Potential(tuple(coerce(spec, float, "potential.potential", many=True)), lam)
        elif spec == "double_well":
            pot = Potential.double_well(lam)
        elif spec == "zero":
            if "lambda" in sec and lam != 0.0:
                raise ConfigError(f"potential.lambda = {lam!r} conflicts with potential.potential = zero (lambda 0)")
            pot = Potential.zero()
        else:
            raise ConfigError(f"[potential] unknown potential {spec!r}")
    except PotentialValidationError as exc:
        raise ConfigError(f"potential.potential = {format_value(spec)}, potential.lambda = {lam!r}: {exc}") from exc
    try:
        check_convexity(pot)
    except PotentialValidationError as exc:
        raise ConfigError(f"potential.lambda = {lam!r} is below the convexity bound: {exc}") from exc
    return pot


def build_run_config(sections: dict[str, dict]) -> RunConfig:
    unknown = set(sections) - set(SECTION_KEYS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    unknown_keys = [f"{sec}.{key}" for sec, entries in sections.items() for key in entries
                    if key not in SECTION_KEYS[sec]]
    if unknown_keys:
        raise ConfigError(f"unknown config keys: {', '.join(unknown_keys)}")
    grid = _build_grid(sections.get("grid", {}))
    scheme = _build_scheme(sections.get("scheme", {}))
    potential = _build_potential(sections.get("potential", {}))
    initial = dict(sections.get("initial", {"preset": "uniform"}))
    run = sections.get("run", {})
    t_end = coerce(run.get("t_end", 0.0), float, "run.t_end")
    outdir = run.get("outdir")
    return RunConfig(
        grid=grid,
        scheme=scheme,
        potential=potential,
        initial=initial,
        t_end=t_end,
        outdir=str(outdir) if outdir is not None else None,
        experiment=dict(sections.get("experiment", {})),
        sections=sections,
    )


def load_config(path, overrides: list[str] | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            sections = parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if overrides:
        apply_overrides(sections, overrides)
    return build_run_config(sections)
