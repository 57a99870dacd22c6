"""Built-in setups and construction of setups from plain dicts or JSON files.

A setup dict has keys:

    N        positive int, half the dilation factor
    r        odd positive int coprime to N, 1 <= r <= 2N - 1
    psi0_hat frequency expression for the scaling function
    filters  list of >= 2 frequency expressions, low-pass first
    theta    optional frequency expression (strictly positive weight)

Expressions use the grammar of symfunc.parse, with "g" the frequency
variable, e.g. "cos(2*g)*sin(g)*chi(0,1/32]".
"""

from __future__ import annotations

import json

from .lattice import TranslationSet
from .setups import GeneralSetup
from .symfunc import parse

# Dilation-4 setup on {0, 3/2} + 2Z with a smooth (sinc-shaped) scaling
# function and a trigonometric filter bank: the three band filters split
# sin(4g)/sin-type identities so the squares sum to one on (0, 1/32], and
# the last filter covers the rest of [0, 1/2].
_EX51 = {
    "N": 2,
    "r": 3,
    "psi0_hat": "sinc(g)*chi(0,1/8]",
    "filters": [
        "cos(g)*cos(2*g)*chi(0,1/32]",
        "cos(2*g)*sin(g)*chi(0,1/32]",
        "sin(2*g)*chi(0,1/32]",
        "1 - chi(0,1/32]",
    ],
}

# Same translation set, sharp-cutoff variant: indicator scaling function and
# a complementary indicator filter pair, with the trivial weight spelled out
# so the weighted filter check degenerates to the unweighted one.
_EX52 = {
    "N": 2,
    "r": 3,
    "psi0_hat": "chi[0,1/8]",
    "filters": [
        "chi[0,1/32]",
        "1 - chi[0,1/32]",
    ],
    "theta": "1",
}

PRESETS: dict[str, dict] = {
    "ex5.1": _EX51,
    "ex5.2": _EX52,
}

_REQUIRED_KEYS = {"N", "r", "psi0_hat", "filters"}
_ALLOWED_KEYS = _REQUIRED_KEYS | {"theta"}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def setup_from_dict(d: dict) -> GeneralSetup:
    """Build a GeneralSetup from a plain dict, validating shape and types."""
    if not isinstance(d, dict):
        raise ValueError(f"setup must be a dict, got {type(d).__name__}")
    keys = set(d)
    missing = _REQUIRED_KEYS - keys
    if missing:
        raise ValueError(f"setup is missing keys: {sorted(missing)}")
    unknown = keys - _ALLOWED_KEYS
    if unknown:
        raise ValueError(f"setup has unknown keys: {sorted(unknown)}")
    N, r = d["N"], d["r"]
    if not isinstance(N, int) or isinstance(N, bool):
        raise ValueError(f"N must be an int, got {N!r}")
    if not isinstance(r, int) or isinstance(r, bool):
        raise ValueError(f"r must be an int, got {r!r}")
    ts = TranslationSet(N, r)
    if not isinstance(d["psi0_hat"], str):
        raise ValueError("psi0_hat must be an expression string")
    filters = d["filters"]
    if not isinstance(filters, (list, tuple)) or not all(
        isinstance(f, str) for f in filters
    ):
        raise ValueError("filters must be a list of expression strings")
    theta = d.get("theta")
    if theta is not None and not isinstance(theta, str):
        raise ValueError("theta must be an expression string when present")
    return GeneralSetup(
        ts=ts,
        psi0_hat=parse(d["psi0_hat"]),
        filters=tuple(parse(f) for f in filters),
        theta=parse(theta) if theta is not None else None,
    )


def preset(name: str) -> GeneralSetup:
    """One of the built-in setups by name (see preset_names())."""
    try:
        d = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {preset_names()}"
        ) from None
    return setup_from_dict(d)


def load_setup_file(path) -> GeneralSetup:
    """Read a JSON setup file (same keys as setup_from_dict)."""
    with open(path, encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return setup_from_dict(d)
