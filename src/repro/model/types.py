"""Attribute data types for relational pervasive environments.

The paper's pseudo-DDL (Tables 1 and 2) uses the types ``STRING``,
``INTEGER``, ``REAL``, ``BOOLEAN``, ``BLOB`` and ``SERVICE``.  ``SERVICE``
is the type of *service reference* attributes: plain data values (strings
here, as in Example 1) that identify services.  We add ``TIMESTAMP`` for
the continuous extension (Section 4), where tuples of XD-Relations may
carry the instant at which they were produced.
"""

from __future__ import annotations

import enum
from typing import Any, Sequence

from repro.errors import TypingError

__all__ = ["DataType", "validate_value", "coerce_value", "exact_type", "coerce_columns"]


class DataType(enum.Enum):
    """Data types of attributes, as used by the Serena DDL."""

    STRING = "STRING"
    INTEGER = "INTEGER"
    REAL = "REAL"
    BOOLEAN = "BOOLEAN"
    BLOB = "BLOB"
    SERVICE = "SERVICE"
    TIMESTAMP = "TIMESTAMP"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Resolve a DDL type keyword (case-insensitive) to a member."""
        try:
            return cls[name.upper()]
        except KeyError:
            raise TypingError(f"unknown data type {name!r}") from None


_PYTHON_TYPES: dict[DataType, tuple[type, ...]] = {
    DataType.STRING: (str,),
    DataType.INTEGER: (int,),
    DataType.REAL: (float, int),
    DataType.BOOLEAN: (bool,),
    DataType.BLOB: (bytes,),
    DataType.SERVICE: (str,),
    DataType.TIMESTAMP: (int,),
}


def validate_value(value: Any, dtype: DataType) -> bool:
    """Return True iff ``value`` belongs to the domain of ``dtype``.

    ``bool`` is excluded from INTEGER/REAL (a Python quirk: ``bool`` is a
    subclass of ``int``), so ``True`` is only a valid BOOLEAN.
    """
    if isinstance(value, bool) and dtype is not DataType.BOOLEAN:
        return False
    return isinstance(value, _PYTHON_TYPES[dtype])


def coerce_value(value: Any, dtype: DataType) -> Any:
    """Coerce ``value`` into the domain of ``dtype`` or raise TypingError.

    The only lossless coercion performed is ``int`` → ``float`` for REAL
    attributes; anything else must already validate.
    """
    if dtype is DataType.REAL and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if validate_value(value, dtype):
        return value
    raise TypingError(f"value {value!r} is not a valid {dtype.value}")


def exact_type(dtype: DataType) -> type:
    """The Python type whose direct instances :func:`coerce_value` returns
    unchanged for ``dtype`` (``float`` for REAL — an ``int`` is valid
    there but coerced; never ``bool`` outside BOOLEAN).  Subclass
    instances do not qualify: they take the value-by-value route."""
    return _PYTHON_TYPES[dtype][0]


def coerce_columns(rows: list[tuple], dtypes: Sequence[DataType]) -> list[tuple]:
    """Coerce a batch of rows of arity ``len(dtypes)`` column by column.

    A column whose values all have the data type's :func:`exact_type`
    passes in one set-of-types test; any other column goes value by value
    through :func:`coerce_value` — same coercions, same
    :class:`TypingError`.  Returns ``rows`` itself when nothing needed
    coercing.  With several invalid values in a batch, the one reported
    is the first of the lowest invalid column.
    """
    if not rows:
        return rows
    columns = list(zip(*rows))
    coerced = False
    for position, dtype in enumerate(dtypes):
        column = columns[position]
        if set(map(type, column)) != {exact_type(dtype)}:
            columns[position] = [coerce_value(value, dtype) for value in column]
            coerced = True
    return list(zip(*columns)) if coerced else rows
