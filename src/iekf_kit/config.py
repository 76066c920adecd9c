"""Structured run configuration: one YAML file drives every CLI command.

Validation is strict: unknown keys anywhere in the document are hard errors,
so a typo can never silently fall back to a default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import yaml

from ._checks import is_int
from .exceptions import ConfigError
from .filters import FilterVariant
from .imu import ImuNoiseSpec
from .sim import InitSpec, Scenario, TrajectorySpec
from .vision import CameraModel


@dataclass
class RunConfig:
    """Everything a run needs: world, sensors, priors, study shape."""

    scenario: Scenario
    init: InitSpec
    variants: list
    runs: int = 50
    seed: int = 0
    output_dir: str = "out"
    parallelism: int = 1


def parse_variant(spec):
    """Parse a variant string like "iekf" or "ij_iekf:0.5"."""
    tag, sep, r = spec.partition(":")
    try:
        return FilterVariant(tag.strip(), float(r) if sep else 0.0)
    except ValueError as e:
        raise ConfigError(f"bad variant {spec!r}: {e}") from e


def _build(cls, data, path):
    """Instantiate a dataclass from a mapping, rejecting unknown keys."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from e


_TOP_KEYS = {"trajectory", "scenario", "noise", "camera", "init",
             "variants", "runs", "seed", "output_dir", "parallelism"}
_SCENARIO_KEYS = {"duration", "imu_rate", "cam_rate", "n_landmarks",
                  "pixel_sigma", "max_range"}


def load_config(path, overrides=None):
    """Read and fully validate a YAML config file.  ``overrides`` maps
    top-level keys to values that replace the file's (the command line's
    ``--seed``, ``--runs`` and ``--output-dir``); they pass the same checks.

    Raises:
        ConfigError: unreadable file, malformed YAML, unknown keys, or
            invalid values.
    """
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"malformed YAML in {path}: {e}") from e
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    doc = {**doc, **(overrides or {})}
    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown top-level keys {unknown}")

    trajectory = _build(TrajectorySpec, doc.get("trajectory"), "trajectory")
    noise = _build(ImuNoiseSpec, doc.get("noise"), "noise")
    camera = _build(CameraModel, doc.get("camera"), "camera")
    init = _build(InitSpec, doc.get("init"), "init")

    sc_data = dict(doc.get("scenario") or {})
    unknown = sorted(set(sc_data) - _SCENARIO_KEYS)
    if unknown:
        raise ConfigError(f"scenario: unknown keys {unknown}")
    try:
        scenario = Scenario(trajectory=trajectory, noise=noise,
                            camera=camera, **sc_data)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"scenario: {e}") from e

    raw_variants = doc.get("variants")
    if raw_variants is None:
        raw_variants = ["ekf", "iekf", "ij_iekf:0.1", "ij_iekf:0.5"]
    if not isinstance(raw_variants, list) or not raw_variants:
        raise ConfigError("variants: expected a non-empty list")
    variants = [parse_variant(str(v)) for v in raw_variants]
    labels = [v.label for v in variants]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"variants: duplicate labels in {labels}")

    runs = doc.get("runs", 50)
    if not is_int(runs) or runs < 1:
        raise ConfigError(f"runs: expected a positive integer, got {runs!r}")
    seed = doc.get("seed", 0)
    if not is_int(seed) or seed < 0:
        raise ConfigError(
            f"seed: expected a non-negative integer, got {seed!r}")
    parallelism = doc.get("parallelism")
    if parallelism is None:
        parallelism = min(os.cpu_count() or 1, runs)
    if not is_int(parallelism) or parallelism < 1:
        raise ConfigError(
            f"parallelism: expected a positive integer, got {parallelism!r}")
    output_dir = str(doc.get("output_dir", "out"))
    return RunConfig(scenario=scenario, init=init, variants=variants,
                     runs=runs, seed=seed, output_dir=output_dir,
                     parallelism=parallelism)


def config_echo(cfg):
    """JSON-serializable echo of a RunConfig, sufficient to reproduce it:
    written as YAML, ``load_config`` reads it back to the same echo."""
    sc = cfg.scenario
    return {
        "trajectory": {f.name: getattr(sc.trajectory, f.name)
                       for f in fields(TrajectorySpec)},
        "scenario": {k: getattr(sc, k) for k in sorted(_SCENARIO_KEYS)},
        "noise": {"sigma_gw": sc.noise.sigma_gw, "sigma_aw": sc.noise.sigma_aw,
                  "sigma_gbw": sc.noise.sigma_gbw,
                  "sigma_abw": sc.noise.sigma_abw,
                  "gravity": sc.noise.gravity.tolist()},
        "camera": {f.name: getattr(sc.camera, f.name)
                   for f in fields(CameraModel)},
        "init": {f.name: getattr(cfg.init, f.name) for f in fields(InitSpec)},
        "variants": [f"{v.tag}:{v.r!r}" if v.tag == "ij_iekf" else v.tag
                     for v in cfg.variants],
        "runs": cfg.runs,
        "seed": cfg.seed,
    }
