"""Edit distance and token error rate conventions."""

import math

from hypothesis import given
from hypothesis import strategies as st

from ctckit.metrics import corpus_token_error_rate, levenshtein

seqs = st.lists(st.integers(0, 4), max_size=8)


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein((1, 2, 3), (1, 2, 3)) == 0

    def test_substitution(self):
        assert levenshtein(("a", "x", "c"), ("a", "b", "c")) == 1

    def test_insert_delete(self):
        assert levenshtein((1, 2), (1, 2, 3)) == 1
        assert levenshtein((), (1, 2)) == 2

    @given(seqs, seqs)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(seqs, seqs)
    def test_bounds(self, a, b):
        d = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(seqs, seqs, seqs)
    def test_triangle(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestTokenErrorRate:
    # one (hyp, ref) pair: the corpus rate is that pair's rate
    def test_identical_zero(self):
        assert corpus_token_error_rate([((1, 2, 3), (1, 2, 3))]) == 0.0

    def test_one_substitution(self):
        assert math.isclose(corpus_token_error_rate([((0, 9, 2), (0, 1, 2))]), 1.0 / 3.0)

    def test_empty_ref_empty_hyp(self):
        assert corpus_token_error_rate([((), ())]) == 0.0

    def test_empty_ref_nonempty_hyp(self):
        # insertions against an empty reference divide by max(1, 0)
        assert corpus_token_error_rate([((1, 2), ())]) == 2.0

    def test_corpus_pools_lengths(self):
        pairs = [((1,), (1, 2, 3)), ((4, 5, 6), (4, 5, 6))]
        # 2 errors over 6 reference tokens
        assert math.isclose(corpus_token_error_rate(pairs), 2.0 / 6.0)

    def test_corpus_empty_refs(self):
        assert corpus_token_error_rate([((1,), ()), ((), ())]) == 1.0
