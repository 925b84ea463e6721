"""Micro-behavior session schema (Sec. II-B of the paper).

A session is a chronological sequence of *micro-behaviors*
``s_i = (v_i, o_i)`` — an item plus the operation the user performed on it.
Merging successive micro-behaviors on the same item yields the *macro-item*
sequence ``S^v`` and, per macro item, its *micro-operation* sequence ``o^i``
(the paper's Fig. 3 example).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = [
    "DatasetFormatError",
    "SessionFormatError",
    "Interaction",
    "Session",
    "MacroSession",
    "OperationVocab",
    "JD_OPERATIONS",
    "TRIVAGO_OPERATIONS",
    "merge_successive",
]


class DatasetFormatError(ValueError):
    """Input that is not the kind of data the reader expects."""


class SessionFormatError(DatasetFormatError):
    """A malformed session record.

    ``path`` and ``line`` (1-based) locate it in a file; with ``path``
    ``None``, ``line`` is the session's 1-based position in its sequence.
    """

    def __init__(self, problem: str, path: str | None = None, line: int | None = None):
        self.problem, self.path, self.line = problem, path, line
        if path is not None:
            problem = f"{path}, line {line}: {problem}"
        elif line is not None:
            problem = f"session {line}: {problem}"
        super().__init__(problem)


@dataclass(frozen=True)
class Interaction:
    """One micro-behavior: the user performed ``operation`` on ``item``."""

    item: int
    operation: int


@dataclass
class Session:
    """A user session: an ordered list of micro-behaviors."""

    interactions: list[Interaction]
    session_id: int = 0

    def __len__(self) -> int:
        return len(self.interactions)

    @property
    def items(self) -> list[int]:
        return [x.item for x in self.interactions]

    @property
    def operations(self) -> list[int]:
        return [x.operation for x in self.interactions]

    def distinct_items(self) -> set[int]:
        return {x.item for x in self.interactions}


@dataclass
class MacroSession:
    """A session after merging successive same-item micro-behaviors.

    ``macro_items[i]`` is the i-th macro item ``v^i``; ``op_sequences[i]`` is
    its micro-operation sequence ``o^i = (o^i_1, ..., o^i_k)``.
    """

    macro_items: list[int]
    op_sequences: list[list[int]]
    target: int | None = None
    session_id: int = 0

    def __post_init__(self) -> None:
        if len(self.macro_items) != len(self.op_sequences):
            raise ValueError("macro_items and op_sequences must have equal length")

    def __len__(self) -> int:
        return len(self.macro_items)

    @property
    def num_micro_behaviors(self) -> int:
        return sum(len(ops) for ops in self.op_sequences)

    def flat_micro(self) -> list[Interaction]:
        """Expand back to the flat micro-behavior sequence."""
        return [
            Interaction(item, op)
            for item, ops in zip(self.macro_items, self.op_sequences)
            for op in ops
        ]


class OperationVocab:
    """Names for the operation set ``O`` (ids are 0-based and dense)."""

    def __init__(self, names: Sequence[str]):
        if len(set(names)) != len(names):
            raise ValueError("operation names must be unique")
        self.names = list(names)
        self._index = {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def id_of(self, name: str) -> int:
        return self._index[name]

    def name_of(self, op_id: int) -> str:
        return self.names[op_id]

    def __iter__(self):
        return iter(self.names)


# The 10 micro-operation types of the JD datasets (Sec. V-A1 names three of
# them explicitly; the rest follow the HUP paper's taxonomy of how a user
# locates an item and what they do on its detail page).
JD_OPERATIONS = OperationVocab(
    [
        "Home2Product",          # enter item from the home page
        "SearchList2Product",    # enter item from search results
        "ShopList2Product",      # enter item from a shop page
        "SaleList2Product",      # enter item from a promotion list
        "CartList2Product",      # revisit item from the cart list
        "Detail_specification",  # read the spec sheet
        "Detail_comments",       # read customer comments
        "Detail_similar",        # browse similar products
        "Cart",                  # add to cart
        "Order",                 # place order
    ]
)

# The 6 item-referencing action types kept from the trivago dump (Sec. V-A1).
TRIVAGO_OPERATIONS = OperationVocab(
    [
        "clickout item",
        "interaction item image",
        "interaction item info",
        "interaction item deals",
        "interaction item rating",
        "search for item",
    ]
)


def merge_successive(session: Session, session_id: int | None = None) -> MacroSession:
    """Merge successive micro-behaviors on the same item (paper Sec. II-B).

    ``[(v1,o1),(v2,o1),(v2,o2),(v3,o1)]`` becomes macro items
    ``[v1, v2, v3]`` with op sequences ``[[o1], [o1, o2], [o1]]``. A repeat of
    an item *after* visiting something else starts a new macro step (the
    multigraph in Fig. 3 depends on this).
    """
    macro_items: list[int] = []
    op_sequences: list[list[int]] = []
    for interaction in session.interactions:
        if macro_items and macro_items[-1] == interaction.item:
            op_sequences[-1].append(interaction.operation)
        else:
            macro_items.append(interaction.item)
            op_sequences.append([interaction.operation])
    return MacroSession(
        macro_items,
        op_sequences,
        session_id=session.session_id if session_id is None else session_id,
    )
