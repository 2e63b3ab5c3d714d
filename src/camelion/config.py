"""Flat key/value run configuration.

A config is a flat tree of dotted keys ("protocol_b.gamma = 0.7"). Files
hold one "key = value" pair per line with '#' comments; unknown keys are
rejected. Command-line --set pairs override file values, which override the
built-in defaults. The merged effective config can be rendered back to text
for provenance.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .errors import ConfigError
from .phantom import DEFAULT_PROTOCOL_A, DEFAULT_PROTOCOL_B, PhantomParams, ProtocolParams
from .pipeline import LoopConfig
from .pv import PvConfig
from .segmenter import SegmenterConfig
from .synth import SynthConfig

_LOOP = LoopConfig()
_PHANTOM = PhantomParams()
_PROTOCOL_FIELDS = tuple(f.name for f in fields(ProtocolParams))
_SYNTH_KEYS = ("backend", "patch_radius", "epochs")

# Values come from the dataclass defaults; only the master seed, the cohort
# sizes and the nhm reference atlas have none there and are stated here.
DEFAULTS: dict[str, object] = {
    "seed": 12345,
    "phantom.base_dims": _PHANTOM.base_dims,
    "phantom.supersample": _PHANTOM.supersample,
    "phantom.shape_jitter": _PHANTOM.shape_jitter,
    "phantom.n_atlas": 10,
    "phantom.n_test": 8,
    **{
        f"protocol_{which}.{name}": getattr(proto, name)
        for which, proto in (("a", DEFAULT_PROTOCOL_A), ("b", DEFAULT_PROTOCOL_B))
        for name in _PROTOCOL_FIELDS
    },
    "loop.max_iterations": _LOOP.max_iterations,
    "loop.change_threshold": _LOOP.change_threshold,
    "loop.mask_rel_threshold": _LOOP.mask_rel_threshold,
    "loop.atlas_images": _LOOP.atlas_images,
    "segmenter.prior_epsilon": _LOOP.segmenter.prior_epsilon,
    "segmenter.smoothing_weight": _LOOP.segmenter.smoothing_weight,
    "pv.beta": _LOOP.pv.beta,
    **{f"synth.{name}": getattr(_LOOP.synth, name) for name in _SYNTH_KEYS},
    "nhm.percentiles": _LOOP.nhm_percentiles,
    "nhm.reference_atlas": 0,
}


def _parse_value(key: str, raw: str):
    default = DEFAULTS[key]
    raw = raw.strip()
    if isinstance(default, bool):
        if raw not in ("true", "false"):
            raise ConfigError(f"bad value for {key}: expected true or false, got {raw!r}")
        return raw == "true"
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            parts = raw.replace(",", " ").split()
            if not parts:
                raise ValueError("empty list")
            elem = type(default[0])
            return tuple(elem(p) for p in parts)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def set_value(cfg: dict, key: str, raw: str) -> None:
    if key not in DEFAULTS:
        raise ConfigError(f"unknown config key {key!r}")
    cfg[key] = _parse_value(key, raw)


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse "key = value" lines into an override dict."""
    overrides: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        set_value(overrides, key.strip(), raw)
    return overrides


def load_config(path=None, set_pairs=()) -> dict:
    """Merge defaults, an optional config file, and --set overrides."""
    cfg = dict(DEFAULTS)
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        cfg.update(parse_config_text(text, source=str(path)))
    for pair in set_pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        set_value(cfg, key.strip(), raw)
    return cfg


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        # the short form only where it parses back to the same value
        text = f"{value:g}"
        return text if float(text) == value else repr(value)
    return str(value)


def format_config(cfg: dict) -> str:
    """Render a config dict back to parseable, sorted text that parses to it."""
    return "".join(f"{key} = {_format_value(cfg[key])}\n" for key in sorted(cfg))


def phantom_params(cfg: dict) -> PhantomParams:
    return PhantomParams(
        base_dims=cfg["phantom.base_dims"],
        supersample=cfg["phantom.supersample"],
        seed=cfg["seed"],
        shape_jitter=cfg["phantom.shape_jitter"],
    )


def protocol(cfg: dict, which: str) -> ProtocolParams:
    return ProtocolParams(**{name: cfg[f"protocol_{which}.{name}"] for name in _PROTOCOL_FIELDS})


def loop_config(cfg: dict) -> LoopConfig:
    return LoopConfig(
        max_iterations=cfg["loop.max_iterations"],
        change_threshold=cfg["loop.change_threshold"],
        segmenter=SegmenterConfig(
            prior_epsilon=cfg["segmenter.prior_epsilon"],
            smoothing_weight=cfg["segmenter.smoothing_weight"],
        ),
        synth=SynthConfig(**{name: cfg[f"synth.{name}"] for name in _SYNTH_KEYS}),
        pv=PvConfig(beta=cfg["pv.beta"]),
        seed=cfg["seed"],
        nhm_percentiles=cfg["nhm.percentiles"],
        mask_rel_threshold=cfg["loop.mask_rel_threshold"],
        atlas_images=cfg["loop.atlas_images"],
    )
