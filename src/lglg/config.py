"""Flat run configuration: every knob of the extraction and projection
pipeline, parsed from ``key=value`` text and packable to the
fixed-width binary block stored in model files."""

import dataclasses
import hashlib
import math
import struct
from dataclasses import dataclass

from .errors import ConfigError
from .gabor import GaborParams
from .preprocess import PreprocessParams

MODE_GRID = "grid"
MODE_KEYPOINT = "keypoint"
_MODES = (MODE_GRID, MODE_KEYPOINT)  # a mode packs as its index here


@dataclass(frozen=True)
class RunConfig:
    # The field order and types are the binary config block of model files
    # (int -> u32, float -> f64, str -> u8 mode index, little-endian).
    # k_requested stays last: the feature fingerprint hashes every byte
    # before it.
    directions: int = 8
    scales: int = 4
    sigma_pi: float = 1.0          # sigma as a multiple of pi
    k_max_pi: float = 0.5          # k_max as a multiple of pi
    spacing: float = math.sqrt(2.0)
    window_len: int = 9
    gamma: float = 0.2
    dog_sigma_inner: float = 1.0
    dog_sigma_outer: float = 2.0
    contrast_alpha: float = 0.1
    contrast_tau: float = 10.0
    mode: str = MODE_GRID
    block_size: int = 15
    ridge_scale: float = 1e-4
    k_requested: int = 1196

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be '{MODE_GRID}' or '{MODE_KEYPOINT}'")
        for f in _FIELDS:
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            if f.type is int and not 0 <= value <= 0xFFFFFFFF:
                raise ConfigError(f"{f.name} must be in 0..4294967295, got {value}")
        if self.block_size < 1:
            raise ConfigError("block_size must be positive")
        if self.ridge_scale < 0.0:
            raise ConfigError("ridge_scale must be nonnegative")
        if self.k_requested < 2:
            raise ConfigError("k_requested must be at least 2 (z-scoring needs 2 components)")
        # constructing the stage params validates their fields
        self.gabor_params()
        self.preprocess_params()

    def gabor_params(self) -> GaborParams:
        return GaborParams(
            directions=self.directions,
            scales=self.scales,
            sigma=self.sigma_pi * math.pi,
            k_max=self.k_max_pi * math.pi,
            spacing=self.spacing,
            window_len=self.window_len,
        )

    def preprocess_params(self) -> PreprocessParams:
        return PreprocessParams(
            gamma=self.gamma,
            dog_sigma_inner=self.dog_sigma_inner,
            dog_sigma_outer=self.dog_sigma_outer,
            contrast_alpha=self.contrast_alpha,
            contrast_tau=self.contrast_tau,
        )

    def pack(self) -> bytes:
        return _STRUCT.pack(*(
            _MODES.index(value) if f.type is str else value
            for f, value in zip(_FIELDS, dataclasses.astuple(self))
        ))

    @classmethod
    def unpack(cls, blob: bytes) -> "RunConfig":
        if len(blob) != CONFIG_BLOCK_SIZE:
            raise ConfigError(f"config block has {len(blob)} bytes, expected {CONFIG_BLOCK_SIZE}")
        values = {}
        for f, value in zip(_FIELDS, _STRUCT.unpack(blob)):
            if f.type is str:
                if value >= len(_MODES):
                    raise ConfigError(f"unknown {f.name} code {value}")
                value = _MODES[value]
            values[f.name] = value
        return cls(**values)

    def feature_fingerprint(self) -> str:
        """Hash of the extraction-relevant fields (k_requested excluded)."""
        return hashlib.sha256(self.pack()[:_FEATURE_BYTES]).hexdigest()


_FIELDS = dataclasses.fields(RunConfig)
_TYPES = {f.name: f.type for f in _FIELDS}
_STRUCT = struct.Struct("<" + "".join({int: "I", float: "d", str: "B"}[f.type] for f in _FIELDS))
CONFIG_BLOCK_SIZE = _STRUCT.size
_FEATURE_BYTES = struct.calcsize(_STRUCT.format[:-1])  # all but k_requested


def text_lines(text: str) -> list[str]:
    """``text`` split at LF, CR-LF and CR, as a file opened in text mode
    splits it; unlike ``str.splitlines`` no other character ends a line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_key_values(text: str, source: str) -> list[tuple[str, str, str]]:
    """``(source:line, key, value)`` for each ``key=value`` line of ``text``.

    ``#`` starts a comment and blank lines are skipped; every key must be a
    :class:`RunConfig` field. Lines end as :func:`text_lines` says."""
    entries = []
    for lineno, raw in enumerate(text_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"{where}: expected key=value, got {raw!r}")
        if key not in _TYPES:
            raise ConfigError(f"{where}: unknown key {key!r}")
        entries.append((where, key, value.strip()))
    return entries


def coerce_value(key: str, value: str) -> object:
    """``value`` converted to the type of the RunConfig field ``key``."""
    try:
        return _TYPES[key](value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse ``key=value`` lines (see :func:`read_key_values`); errors name ``source``."""
    return RunConfig(**{key: coerce_value(key, value) for _, key, value in read_key_values(text, source)})
