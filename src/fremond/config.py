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
from .potential import Potential, PotentialValidationError
from .stepper import SchemeConfig

__all__ = ["RunConfig", "KEY_KINDS", "parse_config_text", "apply_overrides", "build_run_config",
           "load_config", "render_config", "coerce", "format_value", "format_column"]

_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_INT = re.compile(r"^[+-]?\d+$")

# Each accepted key's kind: int, float or str, [kind] for a list of them, or None where
# the section has its own scalar-or-list rule. [initial] accepts the keys of every
# preset, so a config that switches presets by override may keep the old preset's keys.
KEY_KINDS: dict[str, dict[str, object]] = {
    "grid": {"dim": int, "n": None, "extent": None},
    "scheme": {"dt": float, "kappa": float, "epsilon": float, "p": float, "fp_max_iter": int},
    "potential": {"potential": None, "lambda": float},
    "initial": {"preset": str, "phi_t": str, "theta0": float, "phi0": float, "theta_base": float, "theta_amp": float,
                "phi_base": float, "phi_amp": float, "seed": int, "phi_star": float, "theta_file": str, "phi_file": str},
    "run": {"t_end": float, "outdir": None},
    "experiment": {"kind": str, "eps_values": [float], "levels": [int], "deltas": [float], "monitor": str, "M": float},
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


def coerce(raw, kind, where: str):
    """raw as ``kind``, one of int, float, str or [kind] for a list of them; a ConfigError
    naming the entry ``where`` (section.key) when that fails, gives nan or inf, reads a bool
    as a number, changes the value (an int from 16.5; 64.0 gives 64), or finds a non-string
    where a string is due."""
    many = isinstance(kind, list)
    elem = kind[0] if many else kind
    items = raw if many else [raw]
    try:
        out = [elem(x) for x in items]
        if (not many or isinstance(raw, list)) and all(
                isinstance(x, str) if elem is str else
                math.isfinite(y) and not isinstance(x, bool) and (elem is not int or x == y) for x, y in zip(items, out)):
            return out if many else out[0]
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{where} = {format_value(raw)}: expected {'a list of ' * many}{elem.__name__}")


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


# format_value of a Python float, bool or int, by the dtype kind whose tolist gives it
_COLUMN_FORMATS = {"f": repr, "b": {True: "true", False: "false"}.__getitem__, "i": str, "u": str}


def format_column(col) -> list[str]:
    """format_value of every cell of ``col``: a 1-D float, bool or integer ndarray of at most
    64 bits in one ``tolist`` pass, anything else (a list, an object array) cell by cell."""
    kind = col.dtype.kind if isinstance(col, np.ndarray) and col.ndim == 1 and col.dtype.itemsize <= 8 else None
    fmt = _COLUMN_FORMATS.get(kind)
    return list(map(fmt, col.tolist())) if fmt else list(map(format_value, col))


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
    initial: dict           # the typed [initial] entries
    t_end: float
    outdir: str | None = None
    experiment: dict = field(default_factory=dict)  # the typed [experiment] entries
    sections: dict = field(default_factory=dict)    # every entry as parsed, for manifests


def _build_grid(sec: dict) -> Grid:
    dim = sec.get("dim", 1)
    if dim not in (1, 2):
        raise ConfigError(f"grid.dim = {dim}: must be 1 or 2")
    n = sec.get("n", 64)
    extent = sec.get("extent", 1.0)
    ns = tuple(coerce(n if isinstance(n, list) else [n] * dim, [int], "grid.n"))
    exts = tuple(coerce(extent if isinstance(extent, list) else [extent] * dim, [float], "grid.extent"))
    if len(ns) != dim or len(exts) != dim:
        raise ConfigError(f"[grid] dim={dim} inconsistent with n={n}, extent={extent}")
    try:
        return Grid(ns, exts)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_scheme(sec: dict) -> SchemeConfig:
    if "dt" not in sec:
        raise ConfigError("[scheme] must set dt")
    return SchemeConfig(**sec)


def _build_potential(sec: dict) -> Potential:
    spec = sec.get("potential", "double_well")
    lam = sec.get("lambda", 4.0)
    try:
        if isinstance(spec, list):
            return Potential(tuple(coerce(spec, [float], "potential.potential")), lam)
        if spec == "double_well":
            return Potential.double_well(lam)
        if spec == "zero":
            if "lambda" in sec and lam != 0.0:
                raise ConfigError(f"potential.lambda = {lam!r} conflicts with potential.potential = zero (lambda 0)")
            return Potential.zero()
    except PotentialValidationError as exc:
        raise ConfigError(f"potential.potential = {format_value(spec)}, potential.lambda = {lam!r}: {exc}") from exc
    raise ConfigError(f"[potential] unknown potential {spec!r}")


def build_run_config(sections: dict[str, dict]) -> RunConfig:
    """The run a parsed config describes, every entry typed by ``KEY_KINDS`` once, here."""
    unknown = set(sections) - set(KEY_KINDS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    unknown_keys = [f"{sec}.{key}" for sec, entries in sections.items() for key in entries
                    if key not in KEY_KINDS[sec]]
    if unknown_keys:
        raise ConfigError(f"unknown config keys: {', '.join(unknown_keys)}")
    typed = {sec: {key: raw if KEY_KINDS[sec][key] is None else coerce(raw, KEY_KINDS[sec][key], f"{sec}.{key}")
                   for key, raw in entries.items()} for sec, entries in sections.items()}
    run = typed.get("run", {})
    outdir = run.get("outdir")
    return RunConfig(
        grid=_build_grid(typed.get("grid", {})),
        scheme=_build_scheme(typed.get("scheme", {})),
        potential=_build_potential(typed.get("potential", {})),
        initial=typed.get("initial", {"preset": "uniform"}),
        t_end=run.get("t_end", 0.0),
        outdir=str(outdir) if outdir is not None else None,
        experiment=typed.get("experiment", {}),
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
