"""Color types and canonical ordering for the values carried by tokens and facts.

A value is an int, a str, a bool, a timestamp (an int counted in engine time
units), or a flat tuple of those.  Color types describe which values a place
or a relation column accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

SCALAR_KINDS = ("int", "text", "bool", "ts")


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

    def field_index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise KeyError(f"color has no field named {name!r}") from None


INT = ColorType("int")
TEXT = ColorType("text")
BOOL = ColorType("bool")
TS = ColorType("ts")


def product(*components: ColorType, labels=()) -> ColorType:
    return ColorType("product", tuple(components), tuple(labels) if labels else ())


def conforms(value: object, color: ColorType) -> bool:
    """True if ``value`` inhabits ``color``.  Types are exact: a bool is not
    an int, and no subclass (an ``IntEnum``, a ``str`` subclass) is a
    value."""
    kind = color.kind
    t = type(value)
    if kind == "int" or kind == "ts":
        return t is int
    if kind == "text":
        return t is str
    if kind == "bool":
        return t is bool
    if kind == "product":
        return (
            t is tuple
            and len(value) == len(color.components)
            and all(conforms(v, c) for v, c in zip(value, color.components))
        )
    return False


def value_key(value: object):
    """Total ordering key usable across mixed value types.

    Orders by a type tag first, so heterogeneous collections still sort
    deterministically (bool < int < str < tuple).  Tokens and rows are
    checked against exact-type colours before they are sorted, so no
    subclass of these types reaches it.
    """
    t = type(value)
    if t is int:
        return (1, value)
    if t is str:
        return (2, value)
    if t is bool:
        return (0, int(value))
    if t is tuple:
        return (3, tuple(value_key(v) for v in value))
    raise TypeError(f"not a token value: {value!r}")
