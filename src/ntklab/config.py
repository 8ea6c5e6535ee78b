"""Sectioned plain-text configuration.

Files look like::

    [fig1]
    k_list = 5, 20
    lr = 1e-3

Values stay strings until a typed getter asks for them; the checked-in
``defaults.cfg`` carries every experiment's paper-mode defaults and those of
the ``ntklab train`` job, and a user file merges on top of it key by key.
"""

import importlib.resources
from dataclasses import dataclass

__all__ = ["ExperimentConfig", "parse_config", "load_config",
           "default_config", "EXPERIMENT_IDS"]

EXPERIMENT_IDS = ("fig1", "fig2", "fig3", "ntk-regime", "thm3", "thm4-thm5")
# ``ntklab train`` reads its one job from the [train] section
TRAIN = "train"


def parse_config(text):
    """Parse sectioned ``key = value`` text into {section: {key: value}}.

    Blank lines and ``#`` comments are ignored; keys before any section
    header land in section ``""``.
    """
    sections = {}
    current = sections.setdefault("", {})
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1].strip(), {})
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        current[key.strip()] = value.strip()
    if not sections.get(""):
        sections.pop("", None)
    return sections


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def default_config():
    text = importlib.resources.files("ntklab").joinpath("defaults.cfg").read_text()
    return parse_config(text)


def _merge(base, override):
    merged = {s: dict(kv) for s, kv in base.items()}
    for section, kv in override.items():
        merged.setdefault(section, {}).update(kv)
    return merged


def _integral(key, raw):
    """An integer config value; scientific notation such as 2e3 is fine, a
    fractional value is not."""
    try:
        value = float(raw)
    except ValueError:
        value = None
    if value is None or not value.is_integer():
        raise ValueError(f"config key {key!r} must be an integer, got {raw!r}")
    return int(value)


@dataclass
class ExperimentConfig:
    """Typed view over merged config sections for one experiment run."""

    experiment: str
    sections: dict
    seed: int = 0
    out: str = "runs"
    threads: int = 1
    scale: float = 1.0

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS + (TRAIN,):
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose from {', '.join(EXPERIMENT_IDS)}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not 0 < self.scale <= 1:
            raise ValueError("scale must lie in (0, 1]")

    @classmethod
    def build(cls, experiment, user_sections=None, seed=None, out=None,
              threads=None, scale=None):
        """Defaults merged with ``user_sections``; a user key that its
        section of defaults.cfg does not declare is rejected as a typo."""
        defaults = default_config()
        if experiment == TRAIN:
            # the training job reads its [train] section and [common]
            # seed and out, nothing else
            defaults = {"common": {key: defaults["common"][key]
                                   for key in ("seed", "out")},
                        TRAIN: defaults[TRAIN]}
        else:
            defaults.pop(TRAIN)     # only the training job reads [train]
        for section, kv in (user_sections or {}).items():
            unknown = sorted(set(kv) - set(defaults.get(section, {})))
            if unknown:
                raise ValueError(f"unknown config key(s) in [{section}]: "
                                 f"{', '.join(unknown)}")
        sections = _merge(defaults, user_sections or {})
        common = sections.get("common", {})
        return cls(
            experiment=experiment,
            sections=sections,
            seed=_integral("seed", common.get("seed", 0) if seed is None else seed),
            out=common.get("out", "runs") if out is None else out,
            threads=_integral("threads", common.get("threads", 1)
                              if threads is None else threads),
            scale=float(common.get("scale", 1.0)) if scale is None else float(scale),
        )

    # -- typed getters over this experiment's section ----------------------
    def _raw(self, key, section=None):
        section = section or self.experiment
        sec = self.sections.get(section, {})
        if key not in sec:
            raise KeyError(f"missing config key {key!r} in section [{section}]")
        return sec[key]

    def get_str(self, key, section=None):
        return str(self._raw(key, section))

    def get_int(self, key, section=None):
        return _integral(key, self._raw(key, section))

    def get_float(self, key, section=None):
        return float(self._raw(key, section))

    def get_int_list(self, key, section=None):
        return [_integral(key, v) for v in self.get_str_list(key, section)]

    def get_str_list(self, key, section=None):
        raw = self._raw(key, section)
        values = [v.strip() for v in str(raw).split(",") if v.strip()]
        if not values:
            raise ValueError(f"config list {key!r} must be nonempty")
        return values

    def get_batch(self, key="batch_size", section=None):
        raw = str(self._raw(key, section)).lower()
        return None if raw in ("full", "none") else _integral(key, raw)

    def scaled(self, value, minimum=1):
        """Shrink a sample count by the global --scale factor."""
        return max(minimum, int(round(value * self.scale)))

    def echo_lines(self):
        """Flattened config echo for manifests.  The [common] keys show the
        values the run used, flags over config files."""
        used = {"seed": self.seed, "out": self.out, "threads": self.threads,
                "scale": self.scale}
        lines = [f"experiment = {self.experiment}", f"seed = {self.seed}",
                 f"scale = {self.scale}", f"threads = {self.threads}"]
        for section in sorted(self.sections):
            for key, value in sorted(self.sections[section].items()):
                if section == "common":
                    value = used.get(key, value)
                lines.append(f"{section}.{key} = {value}")
        return lines
