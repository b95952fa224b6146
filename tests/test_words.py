from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordrep.errors import BudgetExceededError
from wordrep.graphs import Graph, complete, cycle, nonisomorphic_graphs, wheel
from wordrep.words import (
    alternates,
    format_word,
    graph_of_word,
    parse_word,
    represents,
    search_uniform_word,
)

C4_WORD = parse_word("14213243")


class TestAlternates:
    def test_literal_alternation(self):
        assert alternates([1, 2, 1, 2], 1, 2)

    def test_repeated_prefix(self):
        assert not alternates([1, 1, 2], 1, 2)

    def test_non_edge_of_square_word(self):
        # letters 2 and 4 of the square's word leave 4,2,2,4
        assert not alternates(C4_WORD, 1, 3)

    def test_requires_distinct_present_letters(self):
        with pytest.raises(ValueError):
            alternates([1, 2], 1, 1)
        with pytest.raises(ValueError):
            alternates([1, 2], 1, 3)


class TestGraphOfWord:
    def test_square_word(self):
        assert graph_of_word(C4_WORD, 4) == cycle(4)

    def test_single_occurrences_are_complete(self):
        assert graph_of_word([0, 1, 2], 3) == complete(3)

    def test_blocked_pair(self):
        assert graph_of_word([0, 0, 1, 1], 2) == Graph(2, ())

    def test_missing_letter(self):
        with pytest.raises(ValueError):
            graph_of_word([0, 0], 2)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_edges_are_the_alternating_pairs(self, data):
        n = data.draw(st.integers(1, 8))
        extra = data.draw(st.lists(st.integers(0, n - 1), max_size=24))
        w = data.draw(st.permutations(list(range(n)) + extra))
        pairs = itertools.combinations(range(n), 2)
        assert graph_of_word(w, n).edges == tuple(
            (x, y) for x, y in pairs if alternates(w, x, y)
        )


class TestRepresents:
    def test_square(self):
        assert represents(C4_WORD, cycle(4))

    def test_not_k4(self):
        assert not represents(C4_WORD, complete(4))

    def test_single_vertex(self):
        assert represents([0], Graph(1, ()))

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            represents(C4_WORD, complete(3))


class TestUniformSearch:
    def test_permutation_for_complete(self):
        assert search_uniform_word(complete(3), 1) == (0, 1, 2)

    def test_square_has_two_uniform_witness(self):
        w = search_uniform_word(cycle(4), 2)
        assert w is not None and represents(w, cycle(4))

    def test_w5_exhausted(self):
        assert search_uniform_word(wheel(5), 2) is None
        assert search_uniform_word(wheel(5), 3) is None

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            search_uniform_word(complete(7), 1)
        with pytest.raises(BudgetExceededError):
            search_uniform_word(complete(3), 4)

    def test_deterministic(self):
        assert search_uniform_word(cycle(5), 2) == search_uniform_word(cycle(5), 2)

    def test_agrees_with_brute_force(self):
        for n in range(1, 4):
            for g in nonisomorphic_graphs(n):
                for k in (1, 2):
                    got = search_uniform_word(g, k)
                    brute = None
                    for w in itertools.permutations(
                        [v for v in range(n) for _ in range(k)]
                    ):
                        if graph_of_word(w, n) == g:
                            brute = w
                            break
                    assert (got is None) == (brute is None)

    @given(st.sampled_from(nonisomorphic_graphs(4)), st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, g, k):
        w = search_uniform_word(g, k)
        if w is not None:
            assert represents(w, g)
            assert all(w.count(v) == k for v in range(g.n))

    @given(st.permutations(list(range(5))))
    def test_permutations_represent_complete_graphs(self, perm):
        assert graph_of_word(tuple(perm), 5) == complete(5)

    def test_doubling_preserves_graph_on_fixtures(self):
        for g, k in ((cycle(4), 2), (complete(3), 1), (Graph(2, ()), 2)):
            w = search_uniform_word(g, k)
            if w is None:
                w = (0, 0, 1, 1)
            assert graph_of_word(w + w, g.n) == graph_of_word(w, g.n)


class TestWordSyntax:
    def test_digits(self):
        assert parse_word("1212") == (0, 1, 0, 1)

    def test_commas(self):
        assert parse_word("1,4,2,1,3,2,4,3") == C4_WORD

    def test_round_trip(self):
        assert parse_word(format_word(C4_WORD)) == C4_WORD

    def test_multi_digit_letters_use_commas(self):
        w = tuple(range(12))
        assert parse_word(format_word(w)) == w

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_word("12x3")
        with pytest.raises(ValueError):
            parse_word("0")
        with pytest.raises(ValueError):
            parse_word("")
