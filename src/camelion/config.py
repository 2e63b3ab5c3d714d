"""Flat key/value run configuration.

A config is a flat tree of dotted keys ("protocol_b.gamma = 0.7"). Files
hold one "key = value" pair per line with '#' comments; unknown keys are
rejected. Command-line --set pairs override file values, which override the
built-in defaults. The merged effective config can be rendered back to text
for provenance.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError
from .harmonize import DEFAULT_PERCENTILES
from .phantom import DEFAULT_PROTOCOL_A, DEFAULT_PROTOCOL_B, PhantomParams, ProtocolParams
from .pipeline import LoopConfig
from .pv import PvConfig
from .segmenter import SegmenterConfig
from .synth import SynthConfig

DEFAULTS: dict[str, object] = {
    "seed": 12345,
    "phantom.base_dims": (48, 48, 48),
    "phantom.supersample": 4,
    "phantom.shape_jitter": 0.05,
    "phantom.n_atlas": 10,
    "phantom.n_test": 8,
    "protocol_a.class_means": DEFAULT_PROTOCOL_A.class_means,
    "protocol_a.noise_sigma": DEFAULT_PROTOCOL_A.noise_sigma,
    "protocol_a.gamma": DEFAULT_PROTOCOL_A.gamma,
    "protocol_a.bias_amplitude": DEFAULT_PROTOCOL_A.bias_amplitude,
    "protocol_b.class_means": DEFAULT_PROTOCOL_B.class_means,
    "protocol_b.noise_sigma": DEFAULT_PROTOCOL_B.noise_sigma,
    "protocol_b.gamma": DEFAULT_PROTOCOL_B.gamma,
    "protocol_b.bias_amplitude": DEFAULT_PROTOCOL_B.bias_amplitude,
    "loop.max_iterations": 5,
    "loop.change_threshold": 0.05,
    "loop.mask_rel_threshold": 0.1,
    "segmenter.prior_epsilon": 1e-6,
    "segmenter.smoothing_weight": 0.5,
    "pv.beta": 0.1,
    "synth.backend": "linear",
    "synth.patch_radius": 1,
    "synth.hidden_units": 64,
    "synth.epochs": 20,
    "synth.batch_size": 1024,
    "synth.learning_rate": 1e-3,
    "nhm.percentiles": DEFAULT_PERCENTILES,
    "nhm.reference_atlas": 0,
}


def _parse_value(key: str, raw: str):
    default = DEFAULTS[key]
    raw = raw.strip()
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


def format_config(cfg: dict) -> str:
    """Render a config dict back to parseable, sorted text."""
    lines = []
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, tuple):
            text = " ".join(f"{v:g}" if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            text = f"{value:g}"
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def phantom_params(cfg: dict) -> PhantomParams:
    return PhantomParams(
        base_dims=cfg["phantom.base_dims"],
        supersample=cfg["phantom.supersample"],
        seed=cfg["seed"],
        shape_jitter=cfg["phantom.shape_jitter"],
    )


def protocol(cfg: dict, which: str) -> ProtocolParams:
    prefix = f"protocol_{which}"
    return ProtocolParams(
        class_means=cfg[f"{prefix}.class_means"],
        noise_sigma=cfg[f"{prefix}.noise_sigma"],
        gamma=cfg[f"{prefix}.gamma"],
        bias_amplitude=cfg[f"{prefix}.bias_amplitude"],
    )


def loop_config(cfg: dict) -> LoopConfig:
    return LoopConfig(
        max_iterations=cfg["loop.max_iterations"],
        change_threshold=cfg["loop.change_threshold"],
        segmenter=SegmenterConfig(
            prior_epsilon=cfg["segmenter.prior_epsilon"],
            smoothing_weight=cfg["segmenter.smoothing_weight"],
        ),
        synth=SynthConfig(
            backend=cfg["synth.backend"],
            patch_radius=cfg["synth.patch_radius"],
            hidden_units=cfg["synth.hidden_units"],
            epochs=cfg["synth.epochs"],
            batch_size=cfg["synth.batch_size"],
            learning_rate=cfg["synth.learning_rate"],
        ),
        pv=PvConfig(beta=cfg["pv.beta"]),
        seed=cfg["seed"],
        nhm_percentiles=cfg["nhm.percentiles"],
        mask_rel_threshold=cfg["loop.mask_rel_threshold"],
    )
