"""Exhaustive desk-scale checks of the colourability/representability equivalence.

Every triangulation of a board gets a Classification with three verdicts
from one certified route plus the catalog: ``orientations.certify`` decides
word-representability and, through its re-checked certificate (a colouring,
an odd wheel or the search), proper 3-colourability, never through the
forbidden catalog; the catalog matcher then reports the presence of a
forbidden induced pattern.  Sweeps assert that the first two verdicts agree
(a searched "yes" on a host with no 3-colouring would break it) and that the
third tracks non-3-colourability, and they refuse to claim exhaustiveness
whenever any search ran out of budget.
"""

from __future__ import annotations

import json
import time
from typing import Iterable, NamedTuple, Optional

from .boards import (
    Axis,
    Board,
    EmbeddedGraph,
    Symmetry,
    domino_placements,
    enumerate_triangulations,
    transform_triangulation,
    triangulation_count,
    walk_hosts,
)
from .catalog import (
    ClosurePolicy,
    ForbiddenSet,
    corner_closed_obstructions,
    find_forbidden,
    forbidden_set,
    minimal_graphs,
)
from .errors import BudgetExceededError
from .graphs import (
    Graph,
    are_isomorphic,
    induced,
    is_k_colourable,
    refinement_hash,
    wheel,
)
from .orientations import certify, exists_semi_transitive, route_of

YES, NO, BUDGET = "yes", "no", "budget"


class Classification(NamedTuple):
    board: str
    triangulation: str
    three_colourable: bool
    word_representable: str  # yes | no | budget
    forbidden_hit: Optional[str]
    embedded_hit: Optional[str]  # what the translation matcher alone found
    certificate: Optional[dict]

    def to_json_obj(self) -> dict:
        return self._asdict()

    @property
    def route(self) -> str:
        """How the representability verdict was reached: colouring,
        odd_wheel, search or budget."""
        if self.word_representable == BUDGET:
            return "budget"
        return route_of(self.certificate)


class Violation(NamedTuple):
    board: str
    triangulation: str
    kind: str
    detail: str

    def to_json_obj(self) -> dict:
        return self._asdict()


class SweepReport:
    """The counts and violations of a sweep; a board's report merges into
    its sweep's."""

    def __init__(
        self,
        policy: str,
        boards_examined: int = 0,
        triangulations_examined: int = 0,
        violations: Optional[list[Violation]] = None,
        lemma_mismatches: Optional[list[Violation]] = None,
        budget_exceeded: int = 0,
        embedded_hits: int = 0,
        general_only_hits: int = 0,
        board_counts: Optional[dict[str, int]] = None,
        elapsed_seconds: float = 0.0,
    ) -> None:
        self.policy = policy
        self.boards_examined = boards_examined
        self.triangulations_examined = triangulations_examined
        self.violations = [] if violations is None else violations
        self.lemma_mismatches = [] if lemma_mismatches is None else lemma_mismatches
        self.budget_exceeded = budget_exceeded
        self.embedded_hits = embedded_hits
        self.general_only_hits = general_only_hits
        self.board_counts = {} if board_counts is None else board_counts
        self.elapsed_seconds = elapsed_seconds

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"SweepReport({fields})"

    @property
    def passed(self) -> bool:
        return not self.violations and self.budget_exceeded == 0

    def exit_code(self) -> int:
        if self.violations:
            return 1
        if self.budget_exceeded:
            return 3
        return 0

    def merge(self, other: "SweepReport") -> None:
        self.boards_examined += other.boards_examined
        self.triangulations_examined += other.triangulations_examined
        self.violations.extend(other.violations)
        self.lemma_mismatches.extend(other.lemma_mismatches)
        self.budget_exceeded += other.budget_exceeded
        self.embedded_hits += other.embedded_hits
        self.general_only_hits += other.general_only_hits
        self.board_counts.update(other.board_counts)
        self.elapsed_seconds += other.elapsed_seconds

    def to_json_obj(self) -> dict:
        # Wall-clock time is deliberately left out so reports stay
        # byte-identical across runs; timing goes to stderr diagnostics.
        return {
            "summary": True,
            "policy": self.policy,
            "boards_examined": self.boards_examined,
            "triangulations_examined": self.triangulations_examined,
            "violations": [v.to_json_obj() for v in self.violations],
            "lemma_mismatches": [v.to_json_obj() for v in self.lemma_mismatches],
            "budget_exceeded": self.budget_exceeded,
            "embedded_hits": self.embedded_hits,
            "general_only_hits": self.general_only_hits,
            "board_counts": self.board_counts,
            "passed": self.passed,
        }


class VerdictCache:
    """Isomorphism-class cache of the forbidden-hit flag of 3-colourable hosts.

    Only the isomorphism-invariant hit-free flag is stored, so cache reuse can
    never change report contents; a host isomorphic to a hit-free one needs
    only the embedded scan.  No representability verdict is reused: each one
    carries its own certificate.  ``classify_board`` passes none: a
    3-colourable host has no odd-link vertex, so ``find_forbidden`` returns
    at its first question, whether the graph's odd-link scan finds one,
    before the flag could spare it any work.
    """

    def __init__(self) -> None:
        self._buckets: dict[tuple, list[tuple[Graph, bool]]] = {}

    def lookup(self, g: Graph) -> Optional[bool]:
        """The hit-free flag of a stored host isomorphic to ``g``, or None."""
        for other, hit_free in self._buckets.get(refinement_hash(g), ()):
            if are_isomorphic(g, other):
                return hit_free
        return None

    def store(self, g: Graph, hit_free: bool) -> None:
        self._buckets.setdefault(refinement_hash(g), []).append((g, hit_free))


def classify(
    e: EmbeddedGraph,
    s: ForbiddenSet,
    *,
    board_id: str = "",
    triangulation: str = "",
    cache: Optional[VerdictCache] = None,
) -> Classification:
    """Fill all three verdicts for one triangulation graph.

    One ``certify`` call decides word-representability, within the search's
    default budget (an overrun is recorded as "budget"), and its certificate
    proves 3-colourability too: a colouring proves it, a re-checked odd wheel
    disproves it, and a host that reaches the search has no 3-colouring.  The
    forbidden-pattern verdict is computed independently of the certificate;
    the wheel finder and the catalog share the odd-link scan kept on the
    graph, so each neighbourhood's parity is tested at most once per host,
    and only as far as the two verdicts need.
    """
    g = e.graph
    try:
        o, certificate = certify(g)
    except BudgetExceededError:
        wr, certificate = BUDGET, None
    else:
        wr = YES if o is not None else NO
    colourable = certificate is not None and "colouring" in certificate
    # Only 3-colourable hosts use the cache: each "no" needs its own wheel.
    cached_hit_free = cache.lookup(g) if cache is not None and colourable else None

    # A host isomorphic to a cached hit-free one needs only the embedded scan.
    hit = find_forbidden(e, s, embedded_only=bool(cached_hit_free))
    hit_name = hit.name if hit is not None else None

    if cache is not None and colourable and cached_hit_free is None:
        cache.store(g, hit_name is None)

    return Classification(
        board=board_id,
        triangulation=triangulation,
        three_colourable=colourable,
        word_representable=wr,
        forbidden_hit=hit_name,
        embedded_hit=hit.name if hit is not None and hit.via_embedded else None,
        certificate=certificate,
    )


def _classify_board_range(
    board: Board,
    start: int,
    stop: int,
    policy: ClosurePolicy,
) -> list[Classification]:
    """Classify hosts start..stop-1 of a board, in choice-vector order, each
    as ``boards.walk_hosts`` builds it."""
    s = forbidden_set(policy)
    board_id = board.spec_string()
    out: list[Classification] = []

    def visit(literal: str, host: EmbeddedGraph) -> None:
        out.append(classify(host, s, board_id=board_id, triangulation=literal))

    walk_hosts(board, start, stop, visit)
    return out


def classify_board(
    board: Board,
    policy: ClosurePolicy = ClosurePolicy.EXTENDED,
    jobs: int = 1,
) -> list[Classification]:
    """Classify every triangulation of a board, in choice-vector order.

    With ``jobs`` > 1 each pool job gets one index range of the choice
    vector, one range per job, and walks it from its own layout.
    """
    count = triangulation_count(board)
    if jobs <= 1 or count < 4:
        return _classify_board_range(board, 0, count, policy)
    from multiprocessing import get_context  # only a pool needs it

    chunk = (count + jobs - 1) // jobs
    ranges = [(board, i, min(i + chunk, count), policy) for i in range(0, count, chunk)]
    with get_context("fork").Pool(jobs) as pool:
        parts = pool.starmap(_classify_board_range, ranges)
    return [c for part in parts for c in part]


def verify_theorem(
    board: Board,
    policy: ClosurePolicy = ClosurePolicy.EXTENDED,
    jobs: int = 1,
) -> tuple[SweepReport, list[Classification]]:
    """Check 3-colourable <=> word-representable (and the forbidden-set lemma)
    over every triangulation of one board.

    On a one-domino board, 3-colourability must also be invariant under
    swapping the domino's chord pattern; each host is compared with its flip
    partner among the board's own classifications, which is host ``i ^ 1``
    in ``enumerate_triangulations`` order.
    """
    if len(board.dominoes) > 1:
        raise ValueError("theorem checks cover boards with at most one domino")
    started = time.monotonic()
    report = SweepReport(policy=policy.value, boards_examined=1)
    classifications = classify_board(board, policy, jobs)
    report.triangulations_examined = len(classifications)
    report.board_counts[board.spec_string()] = len(classifications)
    for c in classifications:
        if c.word_representable == BUDGET:
            report.budget_exceeded += 1
        elif c.three_colourable != (c.word_representable == YES):
            report.violations.append(
                Violation(
                    c.board,
                    c.triangulation,
                    "equivalence",
                    f"three_colourable={c.three_colourable} but "
                    f"word_representable={c.word_representable}",
                )
            )
        hit_present = c.forbidden_hit is not None
        if hit_present != (not c.three_colourable):
            v = Violation(
                c.board,
                c.triangulation,
                "forbidden-set",
                f"three_colourable={c.three_colourable} but "
                f"forbidden_hit={c.forbidden_hit}",
            )
            if policy is ClosurePolicy.EXTENDED:
                report.violations.append(v)
            else:
                report.lemma_mismatches.append(v)
        if c.embedded_hit is not None:
            report.embedded_hits += 1
        elif hit_present:
            report.general_only_hits += 1
    if board.dominoes:
        for i, c in enumerate(classifications):
            partner = classifications[i ^ 1]
            if c.three_colourable != partner.three_colourable:
                report.violations.append(
                    Violation(
                        c.board,
                        c.triangulation,
                        "domino-flip",
                        f"3-colourable={c.three_colourable} but flipped "
                        f"({partner.triangulation}) gives {partner.three_colourable}",
                    )
                )
    report.elapsed_seconds = time.monotonic() - started
    return report, classifications


WHEEL_CONTAINMENTS = {
    "T1": 5,
    "T2": 7,
    "A1": 9,
    "A2": 7,
    "A3": 7,
    "A4": 5,
    "A5": 5,
    "A6": 7,
    "A7": 7,
    "A8": 5,
    "B1": 5,
    "B2": 5,
}


def verify_catalog() -> SweepReport:
    """Re-derive every stated fact about the catalog patterns, their
    corner-closed forms and odd wheels."""
    from .graphs import contains_induced

    started = time.monotonic()
    report = SweepReport(policy="-")

    def fail(name: str, claim: str) -> None:
        report.violations.append(Violation("catalog", name, "catalog", claim))

    patterns = {p.name: p for p in minimal_graphs()}
    # A cut corner leaves its cell's diagonal free; the corner-closed forms
    # that contain no base pattern are obstructions in their own right.
    closed = {m.name: m for m in corner_closed_obstructions()}
    if list(closed) != ["A1'", "A3'", "A8'"]:
        fail("corner-closed", f"expected A1', A3', A8' as obstructions, got {list(closed)}")
    graphs = {name: p.embedded.graph for name, p in patterns.items()}
    graphs.update((name, m.embedded.graph) for name, m in closed.items())
    for name, g in graphs.items():
        report.triangulations_examined += 1
        if is_k_colourable(g, 3) is not None:
            fail(name, "expected non-3-colourable")
        try:
            if exists_semi_transitive(g) is not None:
                fail(name, "expected no semi-transitive orientation")
        except BudgetExceededError:
            report.budget_exceeded += 1

    # A1 contains a 9-wheel through deleting the leftmost middle-row vertex.
    a1 = patterns["A1"].embedded
    middle_left = a1.coord_index()[(1, 0)]
    rest = [v for v in range(a1.graph.n) if v != middle_left]
    if not are_isomorphic(induced(a1.graph, rest), wheel(9)):
        fail("A1", "deleting the leftmost middle-row vertex should leave a 9-wheel")

    # A corner-closed form keeps its base pattern's wheel, and the hub the
    # catalog matchers are anchored on is that wheel's.
    hubs = {name: p.rim_length for name, p in patterns.items()}
    hubs.update((name, m.rim_length) for name, m in closed.items())
    for name, g in graphs.items():
        m = WHEEL_CONTAINMENTS[name.rstrip("'")]
        if contains_induced(g, wheel(m)) is None:
            fail(name, f"expected an induced {m}-wheel")
        if hubs[name] != m:
            fail(name, f"derived hub has a {hubs[name]}-cycle link, expected {m}")

    for m in (5, 7, 9):
        try:
            if exists_semi_transitive(wheel(m)) is not None:
                fail(f"W{m}", "odd wheel should admit no semi-transitive orientation")
        except BudgetExceededError:
            report.budget_exceeded += 1

    report.elapsed_seconds = time.monotonic() - started
    return report


def sweep_boards(max_rows: int, max_cols: int) -> list[tuple[int, int]]:
    """Distinct board shapes up to rotation within the given bounds."""
    shapes = []
    for r in range(1, max_rows + 1):
        for c in range(1, max_cols + 1):
            if r > c and c <= max_rows and r <= max_cols:
                continue  # the quarter-turned twin is also in range
            shapes.append((r, c))
    return shapes


def sweep(
    max_rows: int,
    max_cols: int,
    domino_modes: Iterable[int] = (0, 1),
    policy: ClosurePolicy = ClosurePolicy.EXTENDED,
    jobs: int = 1,
) -> tuple[SweepReport, list[Classification]]:
    """Drive the theorem check across all boards up to the given cell bounds.

    Mode 0 covers the bare board; mode 1 adds every horizontal-domino
    placement (vertical placements are images of horizontal ones under a
    quarter turn, which the board symmetry tests guard separately).  A sweep
    that would examine no board raises ``ValueError`` rather than pass.
    """
    modes = set(domino_modes)
    if not modes <= {0, 1}:
        raise ValueError("domino modes are 0 (no domino) and 1 (single domino)")
    boards: list[Board] = []
    for rows, cols in sweep_boards(max_rows, max_cols):
        if 0 in modes:
            boards.append(Board(rows, cols))
        if 1 in modes:
            boards.extend(
                Board(rows, cols, (d,)) for d in domino_placements(rows, cols, Axis.H)
            )
    if not boards:
        raise ValueError(
            f"no board to sweep up to {max_rows}x{max_cols} with domino modes {sorted(modes)}"
        )
    report = SweepReport(policy=policy.value)
    classifications: list[Classification] = []
    for board in boards:
        sub, cls = verify_theorem(board, policy, jobs)
        report.merge(sub)
        classifications.extend(cls)
    return report, classifications


def verify_rotation_reduction(
    board: Board,
    policy: ClosurePolicy = ClosurePolicy.EXTENDED,
    jobs: int = 1,
) -> tuple[SweepReport, SweepReport]:
    """Directly verify a vertical-domino board and its quarter-turned twin.

    Both sweeps must agree triangulation-by-triangulation on all three
    verdicts, validating the reduction that lets sweeps enumerate only
    horizontal placements.
    """
    if len(board.dominoes) != 1 or board.dominoes[0].axis is not Axis.V:
        raise ValueError("rotation-reduction check expects one vertical domino")
    direct, direct_cls = verify_theorem(board, policy, jobs)
    rotated_pairs = [
        transform_triangulation(board, t, Symmetry.ROT90)
        for t in enumerate_triangulations(board)
    ]
    rot_board = rotated_pairs[0][0]
    rotated, rotated_cls_unordered = verify_theorem(rot_board, policy, jobs)
    by_literal = {c.triangulation: c for c in rotated_cls_unordered}
    for c, (nb, nt) in zip(direct_cls, rotated_pairs):
        twin = by_literal[nt.literal()]
        if (
            c.three_colourable != twin.three_colourable
            or c.word_representable != twin.word_representable
            or (c.forbidden_hit is None) != (twin.forbidden_hit is None)
        ):
            direct.violations.append(
                Violation(
                    board.spec_string(),
                    c.triangulation,
                    "rotation-reduction",
                    f"disagrees with rotated twin {nt.literal()} on {nb.spec_string()}",
                )
            )
    return direct, rotated


def write_report(
    stream,
    report: SweepReport,
    classifications: Iterable[Classification] = (),
) -> None:
    """JSON lines: one classification per line, then one summary object."""
    for c in classifications:
        stream.write(json.dumps(c.to_json_obj(), sort_keys=True) + "\n")
    stream.write(json.dumps(report.to_json_obj(), sort_keys=True) + "\n")
