"""Extended relations, or X-Relations (Definition 3).

An X-Relation over an extended relation schema ``R`` is a finite set of
tuples over ``R``; tuples carry values for the real attributes only, in
schema order.  X-Relations are immutable values: the algebra operators
produce new X-Relations, and the dynamic layer
(:mod:`repro.continuous.xdrelation`) journals insertions/deletions instead
of mutating.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import InvalidOperatorError
from repro.model.xschema import ExtendedRelationSchema

__all__ = ["XRelation"]


class XRelation:
    """A finite set of tuples over an extended relation schema.

    ``validated=True`` skips per-tuple domain validation — reserved for
    operator internals whose tuples are recombinations of already-validated
    values (every public construction path validates).
    """

    __slots__ = ("schema", "_tuples")

    def __init__(
        self,
        schema: ExtendedRelationSchema,
        tuples: Iterable[tuple] = (),
        validated: bool = False,
    ):
        self.schema = schema
        if validated:
            self._tuples = frozenset(tuples)
        else:
            self._tuples = frozenset(schema.validate_tuples(tuples))

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_mappings(
        cls,
        schema: ExtendedRelationSchema,
        rows: Iterable[Mapping[str, object]],
    ) -> "XRelation":
        """Build an X-Relation from name→value mappings (real attrs only)."""
        return cls(schema, [schema.values_from_mapping(row) for row in rows])

    def replace_tuples(self, tuples: Iterable[tuple]) -> "XRelation":
        """A new X-Relation over the same schema with other tuples."""
        return XRelation(self.schema, tuples)

    # -- set-of-tuples interface -------------------------------------------------

    @property
    def tuples(self) -> frozenset[tuple]:
        return self._tuples

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, values: object) -> bool:
        return values in self._tuples

    def sorted_tuples(self) -> list[tuple]:
        """Tuples in a deterministic order (for printing and tests)."""
        return sorted(self._tuples, key=_sort_key)

    def to_mappings(self) -> list[dict[str, object]]:
        """All tuples as name→value dicts, deterministically ordered."""
        return [self.schema.mapping_from_tuple(t) for t in self.sorted_tuples()]

    # -- value access ---------------------------------------------------------

    def column(self, name: str) -> list[object]:
        """All values of real attribute ``name``, deterministically ordered."""
        position = self.schema.real_position(name)
        return [t[position] for t in self.sorted_tuples()]

    # -- set operators (Section 3.1.1) -----------------------------------------

    def _check_compatible(self, other: "XRelation", op: str) -> None:
        if not self.schema.compatible(other.schema):
            raise InvalidOperatorError(
                f"{op}: operand schemas are not compatible "
                f"({self.schema!r} vs {other.schema!r})"
            )

    def union(self, other: "XRelation") -> "XRelation":
        self._check_compatible(other, "union")
        return XRelation(self.schema, self._tuples | other._tuples)

    def intersection(self, other: "XRelation") -> "XRelation":
        self._check_compatible(other, "intersection")
        return XRelation(self.schema, self._tuples & other._tuples)

    def difference(self, other: "XRelation") -> "XRelation":
        self._check_compatible(other, "difference")
        return XRelation(self.schema, self._tuples - other._tuples)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    # -- equality ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XRelation):
            return NotImplemented
        return self.schema.compatible(other.schema) and self._tuples == other._tuples

    def __hash__(self) -> int:
        return hash((self.schema.names, self._tuples))

    # -- rendering ---------------------------------------------------------------

    def to_table(self, max_width: int = 28) -> str:
        """Render as a text table in the paper's style: one column per
        schema attribute, with ``*`` in virtual columns."""
        headers = list(self.schema.names)
        rows = []
        for t in self.sorted_tuples():
            mapping = self.schema.mapping_from_tuple(t)
            row = []
            for name in headers:
                if name in self.schema.virtual_names:
                    row.append("*")
                else:
                    row.append(_render_value(mapping[name], max_width))
            rows.append(row)
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]
        def fmt(cells: Sequence[str]) -> str:
            return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        lines = [sep, fmt(headers), sep]
        lines.extend(fmt(r) for r in rows)
        lines.append(sep)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"XRelation({self.schema.name or '<anonymous>'}, {len(self)} tuples)"


def _render_value(value: object, max_width: int) -> str:
    if isinstance(value, bytes):
        text = f"<blob {len(value)}B>"
    elif isinstance(value, float):
        text = f"{value:.6g}"
    else:
        text = str(value)
    if len(text) > max_width:
        text = text[: max_width - 1] + "…"
    return text


def _sort_key(values: tuple):
    """Total order over heterogeneous value tuples for deterministic output."""
    return tuple((type(v).__name__, repr(v)) for v in values)
