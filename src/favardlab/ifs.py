"""Planar homothety systems and their nested generations.

A system is a finite family of maps ``f_i(z) = r_i z + beta_i`` with
contraction ratios ``0 < r_i < 1`` acting on an axis-aligned base rectangle
(generation 0); generation n+1 is the union of the images of generation n.
Rotations and reflections are deliberately unsupported so that every
projection of the system is again an affine system on the line.

Config file grammar (one statement per line, ``#`` starts a comment)::

    name = four-corner
    base = [0, 0, 1, 1]
    map { ratio = "1/4", translate = ["0", "0"] }
    map { ratio = "1/4", translate = ["0", "3/4"] }
    ...

Numbers parse as exact rationals from ``p/q`` or finite-decimal strings,
quoted or bare.  A ``rotation`` field inside ``map { ... }`` is reserved and
rejected unless it equals 0.  Symmetry is not a key: ``IFS2D`` detects it
from the maps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .errors import ConfigError
from .intervals import rational_str, to_fraction

DEFAULT_CYLINDER_DISPLAY_BOUND = 8


def _exact(name: str, value) -> Fraction:
    """``to_fraction`` of a field's value, naming the field on failure."""
    try:
        return to_fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be a finite rational, got {value!r}") from None


@dataclass(frozen=True)
class Similitude2D:
    """A homothety z -> ratio*z + (dx, dy) with 0 < ratio < 1.

    ``ratio`` and ``translation`` are stored as Fractions; ints, floats
    (exactly) and rational strings are converted at construction."""

    ratio: Fraction
    translation: tuple[Fraction, Fraction]

    def __post_init__(self):
        dx, dy = self.translation
        object.__setattr__(self, "ratio", _exact("ratio", self.ratio))
        object.__setattr__(self, "translation",
                           (_exact("translation", dx), _exact("translation", dy)))
        if not (0 < self.ratio < 1):
            raise ValueError(f"contraction ratio must lie in (0, 1), got {self.ratio}")

    @staticmethod
    def of(ratio, dx, dy) -> "Similitude2D":
        return Similitude2D(ratio, (dx, dy))


def _dihedral_invariant(maps, base) -> bool:
    """Whether the base is a square whose map images, as (ratio, corner)
    squares, are carried onto each other by the reflection in the vertical
    center line and by the swap of the axes about the center.  These two
    generate all 8 symmetries of the square."""
    x0, y0, x1, y1 = base
    side = x1 - x0
    if y1 - y0 != side:
        return False
    squares = sorted((m.ratio, m.ratio * x0 + m.translation[0],
                      m.ratio * y0 + m.translation[1]) for m in maps)
    reflected = sorted((r, x0 + x1 - x - r * side, y) for r, x, y in squares)
    swapped = sorted((r, x0 + y - y0, y0 + x - x0) for r, x, y in squares)
    return squares == reflected == swapped


@dataclass(frozen=True)
class IFS2D:
    """A planar homothety system together with its generation-0 rectangle.

    ``base`` is (x0, y0, x1, y1) with x0 < x1 and y0 < y1, stored as
    Fractions like the maps' numbers.  The hypotheses
    are worked out exactly from the maps and the base, never claimed:
    ``nests`` and ``convexity_applies`` are rational comparisons, and
    ``dihedral_symmetry``, set once at construction, marks systems that
    ``_dihedral_invariant`` finds invariant under the symmetries of the
    square, which lets direction sweeps restrict to one eighth of the
    circle.  That check is sufficient, not necessary: a symmetric set given
    by a map set that is not itself symmetric runs on the full domain.
    """

    name: str
    maps: tuple[Similitude2D, ...]
    base: tuple[Fraction, Fraction, Fraction, Fraction]
    dihedral_symmetry: bool = field(init=False)

    def __post_init__(self):
        if len(self.maps) < 2:
            raise ValueError("a system needs at least 2 maps")
        x0, y0, x1, y1 = (_exact("base", v) for v in self.base)
        object.__setattr__(self, "base", (x0, y0, x1, y1))
        if not (x0 < x1 and y0 < y1):
            raise ValueError("base rectangle must have positive width and height")
        object.__setattr__(self, "dihedral_symmetry",
                           _dihedral_invariant(self.maps, self.base))

    @property
    def ratio_sum(self) -> Fraction:
        return sum((m.ratio for m in self.maps), Fraction(0))

    @property
    def nests(self) -> bool:
        """Whether every map's image rectangle r*B + t lies inside the base B,
        so each generation nests in the one before."""
        x0, y0, x1, y1 = self.base
        for m in self.maps:
            r, (dx, dy) = m.ratio, m.translation
            if not (x0 <= r * x0 + dx and r * x1 + dx <= x1
                    and y0 <= r * y0 + dy and r * y1 + dy <= y1):
                return False
        return True

    @property
    def convexity_applies(self) -> bool:
        """Whether both hypotheses of the convexity theorem hold: the ratios
        sum to exactly 1 and the first generation nests in the base."""
        return self.ratio_sum == 1 and self.nests

    @property
    def branching(self) -> int:
        return len(self.maps)


@dataclass(frozen=True)
class ValidationReport:
    ratio_sum: Fraction
    ratio_sum_is_one: bool
    convexity_applies: bool
    nesting: bool
    branching: int
    cylinder_counts: tuple[int, ...]


def validate(ifs: IFS2D) -> ValidationReport:
    """Report-only hypothesis check: ratio sum, nesting, sizes.

    Nesting is exact, not sampled: it is ``IFS2D.nests``.  Failure is
    reported, never raised, so exploratory systems stay usable.  Cylinder
    counts run over generations 0..DEFAULT_CYLINDER_DISPLAY_BOUND.
    """
    n = ifs.branching
    counts = tuple(n ** k for k in range(DEFAULT_CYLINDER_DISPLAY_BOUND + 1))
    return ValidationReport(
        ratio_sum=ifs.ratio_sum,
        ratio_sum_is_one=ifs.ratio_sum == 1,
        convexity_applies=ifs.convexity_applies,
        nesting=ifs.nests,
        branching=n,
        cylinder_counts=counts,
    )


# -- presets ----------------------------------------------------------------

_UNIT_BASE = (Fraction(0), Fraction(0), Fraction(1), Fraction(1))


def _corner(name: str, k: int) -> IFS2D:
    """Four ratio-1/k maps at the corners of the unit square."""
    r = Fraction(1, k)
    ends = (Fraction(0), 1 - r)
    maps = tuple(Similitude2D(r, (dx, dy)) for dx in ends for dy in ends)
    return IFS2D(name, maps, _UNIT_BASE)


def four_corner() -> IFS2D:
    """Four ratio-1/4 maps at the corners of the unit square."""
    return _corner("four-corner", 4)


def sparse_corner(k: int) -> IFS2D:
    """Corner system with ratio 1/k, k > 4; similarity dimension log 4 / log k."""
    if k <= 4:
        raise ValueError(f"sparse-corner requires k > 4, got {k}")
    return _corner(f"sparse-corner({k})", k)


def sierpinski_gasket() -> IFS2D:
    """Three ratio-1/2 maps; ratio sum 3/2, so the convexity hypothesis fails."""
    h = Fraction(1, 2)
    maps = (
        Similitude2D(h, (Fraction(0), Fraction(0))),
        Similitude2D(h, (h, Fraction(0))),
        Similitude2D(h, (Fraction(1, 4), h)),
    )
    return IFS2D("sierpinski-gasket", maps, _UNIT_BASE)


_SPARSE_RE = re.compile(r"^sparse-corner\((\d+)\)$")


def preset(name: str) -> IFS2D:
    """Look up a named system: four-corner, sparse-corner(k), sierpinski-gasket."""
    name = name.strip()
    if name == "four-corner":
        return four_corner()
    if name == "sierpinski-gasket":
        return sierpinski_gasket()
    m = _SPARSE_RE.match(name)
    if m:
        return sparse_corner(int(m.group(1)))
    raise ValueError(f"unknown preset {name!r}")


PRESET_NAMES = ("four-corner", "sparse-corner(k)", "sierpinski-gasket")


# -- config file format ------------------------------------------------------

def _parse_value(token: str) -> Fraction:
    token = token.strip().strip('"').strip("'")
    try:
        return to_fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse rational value {token!r}") from exc


def _parse_list(text: str) -> list[Fraction]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ConfigError(f"expected a [ ... ] list, got {text!r}")
    return [_parse_value(tok) for tok in text[1:-1].split(",") if tok.strip()]


_MAP_FIELD_RE = re.compile(r"(\w+)\s*=\s*(\[[^\]]*\]|\"[^\"]*\"|'[^']*'|[^,]+)")


def _parse_map_block(body: str) -> Similitude2D:
    fields = {}
    for key, raw in _MAP_FIELD_RE.findall(body):
        if key not in ("ratio", "translate", "rotation"):
            raise ConfigError(f"unknown map field {key!r}")
        if key in fields:
            raise ConfigError(f"map field {key!r} given twice")
        fields[key] = raw.strip()
    if "ratio" not in fields or "translate" not in fields:
        raise ConfigError(f"map block needs ratio and translate: {body!r}")
    if "rotation" in fields and _parse_value(fields["rotation"]) != 0:
        raise ConfigError("rotation is reserved and unsupported; only 0 is accepted")
    ratio = _parse_value(fields["ratio"])
    translate = _parse_list(fields["translate"])
    if len(translate) != 2:
        raise ConfigError(f"translate needs exactly two entries: {body!r}")
    if not (0 < ratio < 1):
        raise ConfigError(f"ratio must lie in (0, 1), got {ratio}")
    return Similitude2D(ratio, (translate[0], translate[1]))


def loads_config(text: str) -> IFS2D:
    """Parse the config grammar into a system."""
    name: Optional[str] = None
    base: Optional[list[Fraction]] = None
    maps: list[Similitude2D] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("map"):
                body = line[3:].strip()
                if not (body.startswith("{") and body.endswith("}")):
                    raise ConfigError("map block must be map { ... } on one line")
                maps.append(_parse_map_block(body[1:-1]))
            elif "=" in line:
                key, value = (s.strip() for s in line.split("=", 1))
                if (key == "name" and name is not None
                        or key == "base" and base is not None):
                    raise ConfigError(f"{key} given twice")
                if key == "name":
                    name = value.strip().strip('"')
                elif key == "base":
                    base = _parse_list(value)
                    if len(base) != 4:
                        raise ConfigError("base needs [x0, y0, x1, y1]")
                else:
                    raise ConfigError(f"unknown key {key!r}")
            else:
                raise ConfigError(f"cannot parse line {line!r}")
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    if name is None or base is None or not maps:
        raise ConfigError("config needs name, base, and at least one map block")
    return IFS2D(name, tuple(maps), (base[0], base[1], base[2], base[3]))


def dumps_config(ifs: IFS2D) -> str:
    """Serialize a system in the config grammar (exact round trip)."""
    lines = [f"name = {ifs.name}"]
    lines.append("base = [" + ", ".join(rational_str(v) for v in ifs.base) + "]")
    for m in ifs.maps:
        dx, dy = m.translation
        lines.append(
            f'map {{ ratio = "{rational_str(m.ratio)}", '
            f'translate = ["{rational_str(dx)}", "{rational_str(dy)}"] }}'
        )
    return "\n".join(lines) + "\n"


def load_config(path) -> IFS2D:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())


def dump_config(ifs: IFS2D, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_config(ifs))
