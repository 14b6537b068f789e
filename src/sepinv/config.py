"""Resource caps. Runaway computations fail loudly instead of truncating.

A `Caps` value travels with the objects it bounds: a manifest builds its
field, group, variety and ideals under its caps, and each ideal and variety
hands its caps to what it derives.  Library callers pass `Caps(...)` or get
the defaults; the CLI reads these variables once per run, via `from_env`:

    SEPINV_PAIR_CAP    maximum S-pairs reduced in one Groebner run (pairs
                       a criterion skips do not count), and syzygies in
                       one free resolution: pairs reduced for the
                       non-linear part, plus each column of homological
                       degree 2 or more with a Koszul factor
    SEPINV_DEGREE_CAP  maximum total degree of any intermediate term
    SEPINV_GROUP_CAP   maximum group order during closure enumeration
    SEPINV_ENUM_CAP    maximum field size for element enumeration, and for
                       the extension fields make_field builds tables for
    SEPINV_POINT_CAP   maximum q^n of the coordinate tuples in a point check,
                       checked before the scan

A malformed value raises CapsEnvironmentError from `from_env`.
"""

import os
from dataclasses import dataclass

from .errors import CapsEnvironmentError


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise CapsEnvironmentError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class Caps:
    pair_cap: int = 500_000
    degree_cap: int = 96        # must stay below 128: exponents are packed in bytes
    group_cap: int = 4096
    enum_cap: int = 2 ** 16
    point_cap: int = 2 ** 20


def from_env():
    """The caps the SEPINV_* variables set, defaults for those unset."""
    return Caps(
        pair_cap=_env_int("SEPINV_PAIR_CAP", Caps.pair_cap),
        degree_cap=min(_env_int("SEPINV_DEGREE_CAP", Caps.degree_cap), 127),
        group_cap=_env_int("SEPINV_GROUP_CAP", Caps.group_cap),
        enum_cap=_env_int("SEPINV_ENUM_CAP", Caps.enum_cap),
        point_cap=_env_int("SEPINV_POINT_CAP", Caps.point_cap),
    )
