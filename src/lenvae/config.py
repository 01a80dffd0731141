"""Run configuration: `key = value` files, presets, flag overrides.

Each key is declared once, as a field of the dataclass that uses it:
  - architecture: the fields of ``HyperParams`` (model.py) but
    ``vocab_size``, which the vocabulary sets;
  - training: the fields of ``TrainConfig`` (training.py);
  - beam search: the fields of ``DecodeRequest`` (inference.py),
    ``beam_width`` and ``max_tokens``;
  - the run-level keys no other dataclass owns (``top_k``, ``max_words``,
    ``desired_length``, ``byte_cap``): ``RunConfig`` below.
Values that no run varies are constants, not keys: Adam's beta1, beta2 and
eps (``numerics/optim.py``) and the histogram bucket width (``metrics.py``).
The key table and the defaults are read off those fields, so they are the
desk-scale defaults; the "paper" preset switches to the published
large-corpus hyperparameters (``HyperParams.paper_scale``). Values are
merged in the order defaults <- preset <- config file <- flags, and the
owning dataclass validates them when the config is loaded. Unknown keys are
rejected. Lines starting with `#` (and trailing ` #` comments) are ignored.
"""

from dataclasses import asdict, dataclass, field, fields

from .inference import DecodeRequest, requested_length
from .metrics import DUC_BYTE_CAP
from .model import HyperParams
from .training import TrainConfig


class ConfigError(ValueError):
    pass


def _architecture(make=HyperParams, **values) -> dict:
    """The architecture keys of ``make(vocab_size, **values)``: every field
    but ``vocab_size``, which the vocabulary sets (a placeholder here)."""
    hp = make(vocab_size=1, **values)
    return {name: value for name, value in asdict(hp).items() if name != "vocab_size"}


@dataclass
class RunConfig:
    """One run's settings: the run-level keys, plus the settings objects that
    own the other keys."""

    # preprocessing
    top_k: int = 1000
    max_words: int = 30
    # decoding
    desired_length: str = "20"      # a word count or "natural"
    # evaluation
    byte_cap: int = DUC_BYTE_CAP    # UTF-8 bytes per candidate; <= 0 means no cap
    # HyperParams keyword arguments but vocab_size
    architecture: dict = field(default_factory=_architecture)
    train: TrainConfig = field(default_factory=TrainConfig)
    decode: DecodeRequest = field(default_factory=DecodeRequest)

    def __post_init__(self):
        for name in ("top_k", "max_words"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        requested_length(self.desired_length)

    def hyperparams(self, vocab_size: int) -> HyperParams:
        return HyperParams(vocab_size=vocab_size, **self.architecture)

    def render(self) -> str:
        values = asdict(self)
        for owned in _OWNED:
            values.update(values.pop(owned))
        return "".join(f"{name} = {value}\n" for name, value in values.items())


# RunConfig fields that hold the settings of another dataclass, and that dataclass
_OWNED = {"architecture": HyperParams, "train": TrainConfig, "decode": DecodeRequest}

# every config key and the name of its type; the CLI's overrides are the
# parsed arguments whose destination is one of these keys
KEYS = {f.name: (f.type if isinstance(f.type, str) else f.type.__name__)
        for cls in (*_OWNED.values(), RunConfig) for f in fields(cls)
        if f.name != "vocab_size" and f.name not in _OWNED}

# Published large-corpus settings, selectable with --preset paper: the
# architecture of HyperParams.paper_scale and the settings around it.
PAPER_PRESET = {"top_k": 40000, "batch_size": 512, "beam_width": 100}

PRESETS = {"desk": {}, "paper": {**_architecture(HyperParams.paper_scale), **PAPER_PRESET}}


def _parse_value(key: str, text: str):
    kind = KEYS[key]
    text = text.strip()
    try:
        if kind == "bool":
            if text.lower() in ("true", "1", "yes", "on"):
                return True
            if text.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        return text
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {text!r} as {kind}") from None


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines into a typed override dict."""
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        overrides[key] = _parse_value(key, value)
    return overrides


def load_run_config(config_path=None, preset: str = "desk", overrides=None) -> RunConfig:
    """Defaults <- preset <- config file <- explicit overrides, in that order."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r} (choose from {sorted(PRESETS)})")
    merged = dict(PRESETS[preset])
    if config_path is not None:
        with open(config_path, encoding="utf-8") as f:
            merged.update(parse_config_text(f.read()))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = value

    def owned_by(cls):
        return {f.name: merged[f.name] for f in fields(cls) if f.name in merged}

    try:
        return RunConfig(architecture=_architecture(**owned_by(HyperParams)),
                         train=TrainConfig(**owned_by(TrainConfig)),
                         decode=DecodeRequest(**owned_by(DecodeRequest)),
                         **owned_by(RunConfig))
    except ConfigError:
        raise
    except ValueError as e:  # an owning dataclass rejected a value's range
        raise ConfigError(str(e)) from e
