"""Color types for the values carried by tokens and facts.

A value is an int, a str, a bool, a timestamp (an int counted in engine time
units), or a flat tuple of those.  Text is valid Unicode, which UTF-8 can
encode: a lone surrogate is not (``encodable``).  Color types describe
which values a place or a relation column accepts.  Types are exact, so the
values of one color always compare, and their natural order is the
canonical order of a place's tokens and of a relation's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

# the exact Python type of each scalar kind's values
SCALAR_TYPES = {"int": int, "text": str, "bool": bool, "ts": int}
SCALAR_KINDS = tuple(SCALAR_TYPES)


@dataclass(frozen=True)
class ColorType:
    """A scalar kind or a flat product of scalar kinds.

    ``labels`` optionally names the components of a product so that pattern
    builders can refer to message fields by name.
    """

    kind: str
    components: tuple["ColorType", ...] = ()
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "product":
            if not self.components:
                raise ValueError("product color needs at least one component")
            for c in self.components:
                if c.kind not in SCALAR_KINDS:
                    raise ValueError("tuple components must be scalar (no nesting)")
            if self.labels and len(self.labels) != len(self.components):
                raise ValueError("labels must match component count")
        elif self.kind not in SCALAR_KINDS:
            raise ValueError(f"unknown color kind {self.kind!r}")

    @cached_property
    def exact(self):
        """The exact Python type of this color's values, or for a product
        the tuple of its components' types: two colors hold the same values
        when these are equal, so ``ts`` is ``int`` and labels do not count."""
        if self.kind != "product":
            return SCALAR_TYPES[self.kind]
        return tuple(SCALAR_TYPES[c.kind] for c in self.components)

    @cached_property
    def fits(self):
        """``fits(value)``: whether ``value`` inhabits this color.  Types
        are exact: a bool is not an int, and no subclass (an ``IntEnum``, a
        ``str`` subclass) is a value.  Compiled once per color into an
        exact-type test of the value, or of a tuple's items."""
        if self.kind != "product":
            scalar = self.exact
            return lambda value: type(value) is scalar
        return _tuple_test(self.exact)


INT = ColorType("int")
TEXT = ColorType("text")
BOOL = ColorType("bool")
TS = ColorType("ts")


def product(*components: ColorType, labels=()) -> ColorType:
    return ColorType("product", tuple(components), tuple(labels) if labels else ())


@lru_cache(maxsize=256)
def _tuple_test(types: tuple):
    """The test for tuples whose items have exactly ``types``, shared by
    every product color of those kinds."""
    return lambda value: type(value) is tuple and tuple(map(type, value)) == types


# the color of each scalar type's values
_COLOR_OF = {int: INT, str: TEXT, bool: BOOL}


def color_of(value: object):
    """The color of ``value``, a scalar or a flat tuple of scalars (an
    ``int`` is ``INT``, never ``TS``), or None for a value of no color."""
    if type(value) is not tuple:
        return _COLOR_OF.get(type(value))
    components = [_COLOR_OF.get(type(v)) for v in value]
    return product(*components) if components and None not in components else None


def color_name(color: ColorType) -> str:
    """``'int'``, or ``product(int, text)``, as a diagnostic names a color."""
    if color.kind != "product":
        return repr(color.kind)
    return f"product({', '.join(c.kind for c in color.components)})"


def encodable(value: object) -> bool:
    """True unless ``value`` holds text that UTF-8 cannot encode, which is
    text with a lone surrogate, as a JSON escape such as ``"\\ud800"`` reads.
    ASCII text is passed without encoding it."""
    if type(value) is tuple:
        return all(map(encodable, value))
    if type(value) is not str or value.isascii():
        return True
    try:
        value.encode()
    except UnicodeEncodeError:
        return False
    return True
