"""Run configuration: flat ``key = value`` entries under ``[section]`` headers.

Grammar (documented in docs/config.md):

  - lines are ``key = value`` inside a ``[section]``; '#' starts a comment
  - values parse as int, float, true/false, ``[v1, v2, ...]`` numeric lists,
    or bare strings
  - ``--override section.key=value`` replaces entries after parsing

Sections: [grid] (dim, n, extent), [scheme] (kappa, epsilon, p, dt and the
solver tolerances), [potential] (potential = double_well or a coefficient
list, lambda), [initial] (preset and its parameters), [run] (t_end, outdir),
and optionally [experiment] for the sweep/refine/weakstrong drivers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ConfigError
from .grid import Grid
from .potential import Potential, PotentialValidationError
from .stepper import SchemeConfig

__all__ = ["RunConfig", "parse_config_text", "apply_overrides", "build_run_config",
           "load_config", "render_config", "coerce"]

_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_INT = re.compile(r"^[+-]?\d+$")


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
    """kind(raw), or [kind(x) for x in raw] when many; a ConfigError naming
    the entry ``where`` (section.key) when that fails."""
    try:
        if not many:
            return kind(raw)
        if isinstance(raw, list):
            return [kind(x) for x in raw]
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{where} = {_format_value(raw)}: expected {'a list of ' * many}{kind.__name__}")


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
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
            lines.append(f"{key} = {_format_value(val)}")
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
    kinds = dict.fromkeys(("dt", "kappa", "epsilon", "p", "fp_tol", "newton_tol", "linear_tol"), float)
    kinds.update(fp_max_iter=int, newton_max_iter=int)
    return SchemeConfig(**{k: coerce(sec[k], kind, f"scheme.{k}") for k, kind in kinds.items() if k in sec})


def _build_potential(sec: dict) -> Potential:
    spec = sec.get("potential", "double_well")
    lam = coerce(sec.get("lambda", 4.0), float, "potential.lambda")
    try:
        if isinstance(spec, list):
            return Potential.from_coefficients(coerce(spec, float, "potential.potential", many=True), lam)
        if spec == "double_well":
            return Potential.double_well(lam)
        if spec == "zero":
            return Potential.zero()
    except PotentialValidationError as exc:
        raise ConfigError(f"[potential] {exc}") from exc
    raise ConfigError(f"[potential] unknown potential {spec!r}")


def build_run_config(sections: dict[str, dict]) -> RunConfig:
    unknown = set(sections) - {"grid", "scheme", "potential", "initial", "run", "experiment", "check"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
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
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if overrides:
        apply_overrides(sections, overrides)
    return build_run_config(sections)
