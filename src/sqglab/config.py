"""Parsing and validation of experiment description files.

The file format is deliberately small: INI-style ``[section]`` headers,
``key = value`` assignments, ``#``/``;`` full-line comments, and bracketed
arrays like ``alphas = [0.75, 0.6, 0.51]``.  Scalars are parsed as ints,
floats, booleans (``true``/``false``), or bare strings.  Every parse or
validation failure raises :class:`~sqglab.errors.ConfigError` pointing at
the offending line; problems only visible at end of file (missing sections
or keys) cite the last line.

``_KEYS`` is the one table of sections and keys, with each key's type,
default, allowed values and integer bounds (the upper ones on ``n``, the
operator sizes and the trial count are resource bounds, checked before
anything is allocated);
``_SECTIONS_BY_KIND`` says which sections an experiment kind reads.  Every
setting is read through ``_KEYS`` by :meth:`ParsedConfig.get`, under the
file's own names.  The other range rules and the cross-key rules are the
``require`` calls of :func:`load_experiment` and its helpers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from .critical import DEFAULT_SWEEP_ALPHAS, AlphaSweepConfig
from .dynamics import SqgParams, StepperConfig, _run_dt, validate_run_settings
from .errors import ConfigError, FieldError
from .fields import gaussian_bump_field, random_smooth_field, shear_field
from .spectral import (
    Basis,
    DomainSpec,
    SpectralField,
    cosine_field,
    sine_mode_field,
)

__all__ = [
    "EXPERIMENT_KINDS",
    "Entry",
    "ParsedConfig",
    "Experiment",
    "parse_config_text",
    "parse_config_file",
    "load_experiment",
    "load_config_file",
]

_REQUIRED = object()


class _Key(NamedTuple):
    """How a key is read: its type, its default when absent, its allowed values.

    ``type`` is one of ``str``, ``int``, ``float``, ``bool``, ``ints``,
    ``floats`` and ``floats+inf`` (an array whose entries may be ``inf``).
    ``bounds`` is an ``int`` key's ``(minimum, maximum)``, either ``None``
    for no bound.
    """

    type: str
    default: object = None
    choices: tuple | None = None
    bounds: tuple[int | None, int | None] = (None, None)


#: Resource bound of the sizes a file may ask for: a complex n^2 state, a
#: dense size^2 operator, stays within tens of MB per array.
_MAX_SIZE = 2048

#: Resource bound of ``[operator] trials``: the trials are drawn, stacked
#: and diagonalized at once, at about 0.8 kB and 50 us a trial, so the cap
#: keeps them under 100 MB and about five seconds.
_MAX_TRIALS = 100_000


_PDE_SECTIONS = frozenset(
    {"experiment", "domain", "params", "forcing", "stepper", "init", "output"}
)
_SECTIONS_BY_KIND: dict[str, frozenset] = {
    "simulate": _PDE_SECTIONS | {"monitors"},
    "sweep-alpha": _PDE_SECTIONS | {"sweep"},
    "operator-tests": frozenset({"experiment", "operator", "output"}),
    "estimates-report": _PDE_SECTIONS | {"monitors"},
    "dirichlet-sweep": _PDE_SECTIONS | {"sweep"},
}

EXPERIMENT_KINDS: tuple[str, ...] = tuple(_SECTIONS_BY_KIND)

_KEYS: dict[str, dict[str, _Key]] = {
    "experiment": {"kind": _Key("str", _REQUIRED, EXPERIMENT_KINDS)},
    "domain": {
        "n": _Key("int", _REQUIRED, bounds=(None, _MAX_SIZE)),  # a power of two >= 16
        "box": _Key("float", 2.0 * math.pi),
        "basis": _Key("str", None, ("torus", "dirichlet")),  # default: by kind
    },
    "params": {
        "kappa": _Key("float", _REQUIRED),
        "alpha": _Key("float"),  # fixed-alpha kinds only, and required there
        "lambda": _Key("float", 0.0),
    },
    "forcing": {
        "type": _Key("str", "none", ("none", "cosine", "sine")),
        # default: (1, 0) cosine, (1, 1) sine; inside the dealias mask, |k_i| <= n/3
        "mode": _Key("ints"),
        "amplitude": _Key("float", 1.0),
    },
    "stepper": {
        # default: CFL-derived at run time; t_end/dt at most dynamics.MAX_STEPS,
        # since a step count that does not end within minutes is a mistyped dt
        "dt": _Key("float"),
        "t_end": _Key("float", _REQUIRED),
        "sample_every": _Key("int", 1),
    },
    "init": {
        "type": _Key("str", _REQUIRED, ("random", "shear", "bump")),
        "seed": _Key("int", 0, bounds=(0, None)),
        "decay": _Key("float", 4.0),
        "amplitude": _Key("float", 1.0),
        "mode": _Key("int", 1),
        "width": _Key("float"),  # required by bump
    },
    "monitors": {
        "lq": _Key("floats+inf", ()),
        "sobolev": _Key("floats", ()),
        "damped_energy": _Key("bool", False),
        "tail_cutoff": _Key("float"),
    },
    "sweep": {
        "alphas": _Key("floats", DEFAULT_SWEEP_ALPHAS),
        "epsilon": _Key("float", 0.25),
        "c3": _Key("float"),
    },
    "operator": {
        "size": _Key("int", 16, bounds=(2, _MAX_SIZE)),
        "seed": _Key("int", 0, bounds=(0, None)),
        "trials": _Key("int", 200, bounds=(1, _MAX_TRIALS)),
        "laplacian_n": _Key("int", 32, bounds=(2, _MAX_SIZE)),
    },
    "output": {"dir": _Key("str")},
}

#: The file entry of each constructor argument that raises ``FieldError``.
_FIELD_KEYS: dict[str, tuple[str, str]] = {
    "kappa": ("params", "kappa"),
    "alpha": ("params", "alpha"),
    "lam": ("params", "lambda"),
    "t_end": ("stepper", "t_end"),
    "dt": ("stepper", "dt"),
    "sample_every": ("stepper", "sample_every"),
    "alphas": ("sweep", "alphas"),
}

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_-]+)\]$")
_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Entry:
    """A parsed value together with the line it came from."""

    value: object
    line: int


@dataclass(frozen=True)
class ParsedConfig:
    """Raw section/key table with per-entry line provenance."""

    source: str
    n_lines: int
    sections: Mapping[str, Mapping[str, Entry]]
    section_lines: Mapping[str, int]

    def section_line(self, section: str) -> int:
        return self.section_lines.get(section, self.n_lines)

    def entry(self, section: str, key: str) -> Entry | None:
        return self.sections.get(section, {}).get(key)

    def require(self, ok: bool, message: str, section: str, key: str | None = None) -> None:
        """Raise :class:`ConfigError` with ``message`` unless ``ok``.

        The error cites the line of ``section.key``; without a ``key``, or
        when the key is absent, the section header; when the section is
        absent too, the last line.
        """
        if not ok:
            found = None if key is None else self.entry(section, key)
            line = self.section_line(section) if found is None else found.line
            raise ConfigError(message, source=self.source, line=line)

    def get(self, section: str, key: str):
        """The value of ``section.key``, checked against its row of ``_KEYS``.

        An absent key takes the table default; an absent required key cites
        the section header.
        """
        vtype, default, choices, (minimum, maximum) = _KEYS[section][key]
        found = self.entry(section, key)
        if found is None:
            self.require(
                default is not _REQUIRED,
                f"missing required key '{key}' in section [{section}]",
                section,
            )
            return default
        value = found.value

        def require_type(ok: bool, expected: str, shown=value) -> None:
            self.require(ok, f"{key} must be {expected}, got {shown!r}", section, key)

        def number(item) -> float:
            require_type(_is_number(item), "a number", item)
            try:
                item = float(item)
            except OverflowError:  # an integer literal beyond the float range
                item = math.inf if item > 0 else -math.inf
            finite = math.isfinite(item) or (vtype == "floats+inf" and math.isinf(item))
            require_type(finite, "finite", item)
            return item

        if vtype == "str":
            require_type(_is_number(value) or isinstance(value, str), "a string")
            text = str(value)
            if choices is not None:
                require_type(text in choices, f"one of {sorted(choices)}", text)
            return text
        if vtype == "int":
            require_type(_is_int(value), "an integer")
            if minimum is not None:
                require_type(value >= minimum, f"at least {minimum}")
            if maximum is not None:
                require_type(value <= maximum, f"at most {maximum}")
        elif vtype == "bool":
            require_type(isinstance(value, bool), "true or false")
        elif vtype == "float":
            return number(value)
        elif vtype == "ints":
            ok = isinstance(value, tuple) and all(map(_is_int, value))
            require_type(ok, "an array of integers")
        else:
            require_type(isinstance(value, tuple), "an array like [1, 2, 3]")
            return tuple(number(item) for item in value)
        return value


def _parse_scalar(token: str, source: str, line: int):
    lowered = token.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    if len(token) >= 2 and token[0] == token[-1] and token[0] in {"'", '"'}:
        return token[1:-1]
    if any(ch in token for ch in "[]=,"):
        raise ConfigError(
            f"cannot parse value {token!r}", source=source, line=line
        )
    return token


def _parse_value(raw: str, source: str, line: int):
    raw = raw.strip()
    if not raw:
        raise ConfigError("empty value", source=source, line=line)
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ConfigError(
                f"unterminated array {raw!r}", source=source, line=line
            )
        inner = raw[1:-1].strip()
        if not inner:
            return ()
        items = [item.strip() for item in inner.split(",")]
        if any(not item for item in items):
            raise ConfigError(
                f"empty element in array {raw!r}", source=source, line=line
            )
        return tuple(_parse_scalar(item, source, line) for item in items)
    return _parse_scalar(raw, source, line)


def parse_config_text(text: str, source: str = "<config>") -> ParsedConfig:
    """Parse the INI-like grammar into a raw section/key table."""
    sections: dict[str, dict[str, Entry]] = {}
    section_lines: dict[str, int] = {}
    current: str | None = None
    lines = text.splitlines()
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        header = _SECTION_RE.match(line)
        if header:
            name = header.group(1)
            if name not in _KEYS:
                raise ConfigError(
                    f"unknown section [{name}]", source=source, line=lineno
                )
            if name in sections:
                raise ConfigError(
                    f"duplicate section [{name}] (first at line {section_lines[name]})",
                    source=source,
                    line=lineno,
                )
            sections[name] = {}
            section_lines[name] = lineno
            current = name
            continue
        if "=" not in line:
            raise ConfigError(
                f"expected 'key = value' or '[section]', got {line!r}",
                source=source,
                line=lineno,
            )
        key, _, value = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"invalid key {key!r}", source=source, line=lineno)
        if current is None:
            raise ConfigError(
                f"key {key!r} appears before any [section] header",
                source=source,
                line=lineno,
            )
        if key not in _KEYS[current]:
            raise ConfigError(
                f"unknown key {key!r} in section [{current}] "
                f"(known: {sorted(_KEYS[current])})",
                source=source,
                line=lineno,
            )
        if key in sections[current]:
            raise ConfigError(
                f"duplicate key {key!r} in section [{current}] "
                f"(first at line {sections[current][key].line})",
                source=source,
                line=lineno,
            )
        sections[current][key] = Entry(_parse_value(value, source, lineno), lineno)
    return ParsedConfig(
        source=source,
        n_lines=max(1, len(lines)),
        sections=sections,
        section_lines=section_lines,
    )


def parse_config_file(path) -> ParsedConfig:
    """Read and parse a configuration file, which must be UTF-8 text."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        message = f"not UTF-8 text: byte {data[err.start]:#04x} cannot be decoded"
        raise ConfigError(message, source=str(path), line=line) from None
    return parse_config_text(text, source=str(path))


@dataclass(frozen=True)
class Experiment:
    """Validated, ready-to-run experiment description.

    Everything that can be checked without running has been checked.  Every
    setting is read from ``parsed``, the table the experiment was loaded
    from, with ``parsed.get(section, key)`` under the file's own names;
    ``domain``, ``params`` (fixed-alpha kinds) and ``forcing`` are the
    objects built from it, ``None`` where the kind has none.  The methods
    construct the runtime objects (initial field, stepper, sweep
    configuration) deterministically from the table.
    """

    kind: str
    parsed: ParsedConfig = field(repr=False)
    domain: DomainSpec | None = None
    params: SqgParams | None = None
    forcing: SpectralField | None = None

    def initial_field(self, seed_override: int | None = None) -> SpectralField:
        """Build the initial condition (CLI --seed overrides the file seed).

        An ``[init]`` value that builds no field (one that leaves the zero
        field, or overflows) raises :class:`ConfigError` citing its line.
        """
        if self.domain is None:
            raise ValueError(f"experiment kind {self.kind!r} has no initial field")
        get = self.parsed.get
        itype, amplitude = get("init", "type"), get("init", "amplitude")
        try:
            if itype == "random":
                seed = get("init", "seed") if seed_override is None else int(seed_override)
                decay = get("init", "decay")
                return random_smooth_field(self.domain, seed, decay=decay, amplitude=amplitude)
            if itype == "shear":
                return shear_field(self.domain, amplitude=amplitude, mode=get("init", "mode"))
            return gaussian_bump_field(
                self.domain, width=get("init", "width"), amplitude=amplitude
            )
        except FieldError as err:
            self.parsed.require(False, str(err), "init", err.field)

    def stepper_for(self, theta0: SpectralField) -> StepperConfig:
        """Stepper for the fixed-alpha kinds, with CFL-derived default dt.

        Raises :class:`FieldError` naming ``dt`` when ``t_end`` needs more
        than :data:`~sqglab.dynamics.MAX_STEPS` steps of the CFL step.
        """
        if self.domain is None:
            raise ValueError(f"experiment kind {self.kind!r} does not time-step")
        get = self.parsed.get
        t_end = get("stepper", "t_end")
        return StepperConfig(
            dt=_run_dt(get("stepper", "dt"), theta0, t_end),
            t_end=t_end,
            sample_every=get("stepper", "sample_every"),
        )

    def sweep_config(self, theta0: SpectralField) -> AlphaSweepConfig:
        """Sweep configuration for the alpha-marching kinds.

        An unset ``dt`` is pinned to the CFL step of ``theta0`` here, so the
        sweep computes it once, and like :meth:`stepper_for` this raises
        :class:`FieldError` naming ``dt`` when that step is too small.
        """
        if "sweep" not in _SECTIONS_BY_KIND[self.kind]:
            raise ValueError(f"experiment kind {self.kind!r} is not a sweep")
        get = self.parsed.get
        t_end = get("stepper", "t_end")
        return AlphaSweepConfig(
            theta0=theta0,
            kappa=get("params", "kappa"),
            alphas=get("sweep", "alphas"),
            lam=get("params", "lambda"),
            forcing=self.forcing,
            t_end=t_end,
            dt=_run_dt(get("stepper", "dt"), theta0, t_end),
            sample_every=get("stepper", "sample_every"),
        )


def load_experiment(parsed: ParsedConfig) -> Experiment:
    """Validate a raw table into an :class:`Experiment`.

    Every key of every section the kind reads is read once, in ``_KEYS``
    order, and so checked against its row even where another key leaves it
    unused; the rules that relate keys to each other come after.
    """
    require = parsed.require
    kind = parsed.get("experiment", "kind")
    sections = _SECTIONS_BY_KIND[kind]
    for section in parsed.sections:
        require(
            section in sections,
            f"section [{section}] is not used by experiment kind {kind!r}",
            section,
        )
    value = {
        (section, key): parsed.get(section, key)
        for section, keys in _KEYS.items()
        if section in sections
        for key in keys
    }
    if kind == "operator-tests":
        return Experiment(kind=kind, parsed=parsed)

    # -- every remaining kind runs the PDE and needs a domain --------------
    is_sweep = "sweep" in sections
    n, box, basis = (value["domain", key] for key in ("n", "box", "basis"))
    if basis is None:
        basis = "dirichlet" if kind == "dirichlet-sweep" else "torus"
    require(
        kind != "dirichlet-sweep" or basis == "dirichlet",
        "dirichlet-sweep requires basis = dirichlet",
        "domain",
        "basis",
    )
    try:
        domain = DomainSpec(n=n, box=box, basis=Basis(basis))
    except FieldError as err:
        require(False, str(err), "domain", err.field)

    kappa, alpha, lam = (value["params", key] for key in ("kappa", "alpha", "lambda"))
    require(
        not (is_sweep and alpha is not None),
        "alpha is fixed per sweep member; set [sweep] alphas instead",
        "params",
        "alpha",
    )
    require(
        is_sweep or alpha is not None,
        f"missing required key 'alpha' in section [params] for kind {kind!r}",
        "params",
    )

    forcing = _forcing(parsed, value, domain)
    t_end, dt, sample_every = (value["stepper", key] for key in ("t_end", "dt", "sample_every"))

    params = None
    try:
        if is_sweep:
            # the initial data is built at run time; zeros stand in for it here
            AlphaSweepConfig(
                theta0=SpectralField.zeros(domain), kappa=kappa, alphas=value["sweep", "alphas"],
                lam=lam, forcing=forcing, t_end=t_end, dt=dt, sample_every=sample_every,
            )
        else:
            params = SqgParams(kappa=kappa, alpha=alpha, lam=lam, forcing=forcing)
            validate_run_settings(t_end, dt, sample_every)
    except FieldError as err:
        require(False, str(err), *_FIELD_KEYS[err.field])

    _check_init(parsed, value, domain)
    if is_sweep:
        _check_sweep(parsed, value)
    else:
        _check_monitors(parsed, value, domain, lam)
    return Experiment(kind=kind, parsed=parsed, domain=domain, params=params, forcing=forcing)


def _forcing(parsed: ParsedConfig, value: dict, domain: DomainSpec) -> SpectralField | None:
    ftype, mode, amplitude = (value["forcing", key] for key in ("type", "mode", "amplitude"))
    parsed.require(
        mode is None or len(mode) == 2,
        f"forcing mode must have two components, got {mode!r}",
        "forcing",
        "mode",
    )
    if ftype == "none":
        return None
    if mode is None:
        mode = (1, 0) if ftype == "cosine" else (1, 1)
    torus = domain.basis is Basis.TORUS
    if ftype == "cosine":
        parsed.require(torus, "cosine forcing requires the torus basis", "forcing", "type")
    else:
        parsed.require(not torus, "sine forcing requires the dirichlet basis", "forcing", "type")
    build = cosine_field if ftype == "cosine" else sine_mode_field
    try:
        forcing = build(domain, mode, amplitude)
    except ValueError as err:
        parsed.require(False, str(err), "forcing", "mode")
    # the march evolves only the modes the transport resolves
    cut = domain.n // 3
    parsed.require(
        max(abs(k) for k in mode) <= cut,
        f"forcing mode {tuple(mode)} lies outside the 2/3-rule dealias mask: "
        f"each |k_i| must be at most n/3, here {cut}",
        "forcing",
        "mode",
    )
    return forcing


def _check_init(parsed: ParsedConfig, value: dict, domain: DomainSpec) -> None:
    require = parsed.require
    itype, decay, amplitude, mode, width = (
        value["init", key] for key in ("type", "decay", "amplitude", "mode", "width")
    )
    require(amplitude > 0, f"amplitude must be positive, got {amplitude!r}", "init", "amplitude")
    require(
        itype != "random" or decay > 1.0,
        f"decay must exceed 1 for a smooth field, got {decay!r}",
        "init",
        "decay",
    )
    if itype == "shear":
        require(
            domain.basis is Basis.TORUS,
            "shear initial data requires the torus basis",
            "init",
            "type",
        )
        require(
            1 <= mode < domain.n // 2, f"mode must lie in [1, n/2), got {mode!r}", "init", "mode"
        )
    if itype == "bump":
        require(width is not None, "bump initial data requires a width", "init")
        require(
            0 < width <= domain.box / 4,
            f"width must lie in (0, box/4], got {width!r}",
            "init",
            "width",
        )


def _check_monitors(parsed: ParsedConfig, value: dict, domain: DomainSpec, lam: float) -> None:
    require = parsed.require
    lq, sobolev, damped, tail = (
        value["monitors", key] for key in ("lq", "sobolev", "damped_energy", "tail_cutoff")
    )
    for q in lq:
        require(q >= 2, f"lq orders must be >= 2, got {q!r}", "monitors", "lq")
    for s in sobolev:
        require(s > 0, f"sobolev orders must be positive, got {s!r}", "monitors", "sobolev")
    # two orders that print alike under {:g} would name one series column
    columns = {"lq": [f"lq{q:g}" for q in lq], "sobolev": [f"h{s:g}" for s in sobolev]}
    for key, names in columns.items():
        repeated = next((c for i, c in enumerate(names) if c in names[:i]), None)
        message = f"{key} orders must name distinct columns, got {repeated!r} twice"
        require(repeated is None, message, "monitors", key)
    require(
        not damped or lam > 0,
        "damped_energy monitoring requires lambda > 0",
        "monitors",
        "damped_energy",
    )
    require(
        tail is None or (tail > 0 and 4 * tail <= domain.box),
        f"tail_cutoff must satisfy 0 < 4*cutoff <= box, got {tail!r}",
        "monitors",
        "tail_cutoff",
    )


def _check_sweep(parsed: ParsedConfig, value: dict) -> None:
    # the alphas are checked with the sweep's other rules
    epsilon, c3 = value["sweep", "epsilon"], value["sweep", "c3"]
    parsed.require(
        0 < epsilon < 0.5, f"epsilon must lie in (0, 1/2), got {epsilon!r}", "sweep", "epsilon"
    )
    parsed.require(c3 is None or c3 > 0, f"c3 must be positive, got {c3!r}", "sweep", "c3")


def load_config_file(path) -> Experiment:
    """Parse and validate an experiment file in one step."""
    return load_experiment(parse_config_file(path))
