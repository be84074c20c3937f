"""Vertex online Ramsey game: stage-based builder/painter state machine.

Stages add one vertex each; the builder proposes edges from the new vertex
to earlier ones (at least one per stage after the first), and the painter
colors each edge the moment it is created.  The driver stops as soon as a
monochromatic monotone path of the target length exists.

The engine is agnostic about the two color labels: the standalone game uses
"red"/"blue", while the extraction pipeline keeps one GameState per phi
class and adds its edges itself, colored by the triple-color labels
"000"/"010" that it reads from the pair masks of ``cstg.chromatics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .drawing import _count
from .errors import BudgetExhausted, RuleViolation

RED = "red"
BLUE = "blue"


class GameState:
    """Vertices in creation order plus colored edges and path DP.

    Vertex labels are ints from 1 (stages or anchored positions) and must
    be added in strictly increasing order ("monotone" means increasing label
    along the path, which then coincides with creation order).  Edge colors
    are str, at most two per game.  For every color the longest
    monochromatic monotone path ending at each vertex is maintained
    incrementally; edges may only attach to the newest vertex.
    """

    def __init__(self):
        self.vertices: List[int] = []
        self.edges: List[Tuple[int, int, str]] = []
        self.colors = {}  # (u, w) -> color
        self._best_len = {}  # (v, color) -> path length ending at v
        self._parent = {}  # (v, color) -> predecessor vertex or None
        self._palette: List[str] = []  # the colors used, in order of first use

    def add_vertex(self, label: Optional[int] = None) -> int:
        if label is None:
            label = self.vertices[-1] + 1 if self.vertices else 1
        _count(label, "vertex label", 1)
        if self.vertices and label <= self.vertices[-1]:
            raise RuleViolation("vertex labels must strictly increase")
        self.vertices.append(label)
        return label

    def add_edge(self, u: int, w: int, color: str) -> None:
        if not isinstance(color, str):
            raise RuleViolation(f"edge color {color!r} is not a str")
        new = color not in self._palette
        if new and len(self._palette) == 2:
            raise RuleViolation(f"edge color {color!r} is a third color, after "
                                f"{self._palette[0]!r} and {self._palette[1]!r}")
        if not self.vertices or w != self.vertices[-1]:
            raise RuleViolation(f"edge ({u},{w}) is not incident to the newest vertex")
        if u not in set(self.vertices[:-1]):
            raise RuleViolation(f"edge endpoint {u} does not exist yet")
        if (u, w) in self.colors:
            raise RuleViolation(f"edge ({u},{w}) already built")
        if new:
            self._palette.append(color)
        self.colors[(u, w)] = color
        self.edges.append((u, w, color))
        ending = self.path_length(u, color) + 1
        if ending > self.path_length(w, color):
            self._best_len[(w, color)] = ending
            self._parent[(w, color)] = u

    def path_length(self, v: int, color: str) -> int:
        return self._best_len.get((v, color), 1)

    def best(self) -> Tuple[int, Optional[int], Optional[str]]:
        """(length, end vertex, color) of the longest monochromatic path."""
        if not self._best_len:
            length = 1 if self.vertices else 0
            end = self.vertices[0] if self.vertices else None
            return length, end, None
        (v, color), length = max(
            self._best_len.items(), key=lambda kv: (kv[1], -kv[0][0])
        )
        return length, v, color

    def path_witness(self, v: int, color: str) -> List[int]:
        path = [v]
        while (path[-1], color) in self._parent:
            path.append(self._parent[(path[-1], color)])
        path.reverse()
        return path

    @property
    def stage(self) -> int:
        return len(self.vertices)

    @property
    def total_edges(self) -> int:
        return len(self.edges)


@dataclass
class GameTranscript:
    """Ordered event log; replaying it reproduces the final state."""

    target: int
    events: List[Tuple[int, int, int, str]] = field(default_factory=list)
    stages: int = 0
    total_edges: int = 0
    witness: Optional[List[int]] = None
    witness_color: Optional[str] = None

    def replay(self) -> GameState:
        state = GameState()
        for stage, u, w, color in self.events:
            while state.stage < stage:
                state.add_vertex()
            state.add_edge(u, w, color)
        while state.stage < self.stages:
            state.add_vertex()
        return state


BuilderStrategy = Callable[[GameState, int], Sequence[int]]
PainterStrategy = Callable[[GameState, Tuple[int, int]], str]


def naive_builder() -> BuilderStrategy:
    """Creates every possible edge at each stage (ascending prior vertex)."""

    def build(state: GameState, w: int) -> Sequence[int]:
        return [u for u in state.vertices if u != w]

    return build


def adversarial_painter() -> PainterStrategy:
    """Greedy min-max painter: color each edge so the monochromatic path
    ending at it stays as short as possible; ties go red."""

    def paint(state: GameState, edge: Tuple[int, int]) -> str:
        u, _ = edge
        red_len = state.path_length(u, RED) + 1
        blue_len = state.path_length(u, BLUE) + 1
        return RED if red_len <= blue_len else BLUE

    return paint


def run_game(
    m: int,
    builder: BuilderStrategy,
    painter: PainterStrategy,
    budget: int,
) -> GameTranscript:
    """Drive the game until a monochromatic monotone path of m vertices exists.

    Raises InvalidSelection on a bad target or budget, RuleViolation on an
    illegal builder move and BudgetExhausted (carrying the transcript so
    far) when the edge budget runs out first.
    """
    _count(m, "target path length", 2)
    _count(budget, "edge budget", 1)
    state = GameState()
    transcript = GameTranscript(target=m)
    while True:
        w = state.add_vertex()
        transcript.stages = state.stage
        proposed = list(builder(state, w))
        if state.stage >= 2 and not proposed:
            raise RuleViolation(f"builder created no edge at stage {state.stage}")
        for u in proposed:
            if state.total_edges >= budget:
                raise BudgetExhausted(
                    f"edge budget {budget} exhausted at stage {state.stage}",
                    payload=transcript,
                )
            state.add_edge(u, w, painter(state, (u, w)))
            transcript.events.append((state.stage, u, w, state.colors[(u, w)]))
            transcript.total_edges = state.total_edges
            length, end, color = state.best()
            if length >= m:
                transcript.witness = state.path_witness(end, color)[-m:]
                transcript.witness_color = color
                return transcript
