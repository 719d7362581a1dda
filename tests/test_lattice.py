import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctckit import (
    Alignment,
    CapacityError,
    DistributionLattice,
    InvalidInputError,
    LabelSequence,
    LogitLattice,
    Vocabulary,
    collapse,
    inverse_collapse_count,
    load_lattice_text,
    save_lattice_text,
    softmax_rows,
)
from ctckit.lattice import format_lattice_text, parse_lattice_text

from conftest import random_distribution

VOCAB_AB = Vocabulary(("a", "b"))
RNG = np.random.default_rng(7)


def test_vocabulary_layout():
    v = Vocabulary(("a", "b", "c"))
    assert v.size == 3
    assert v.extended_size == 4
    assert v.lattice_index(0) == 1
    assert v.token_of(1) == "b"


def test_vocabulary_rejects_duplicates():
    with pytest.raises(InvalidInputError):
        Vocabulary(("a", "a"))


def test_label_sequence_min_frames():
    assert LabelSequence((0, 0)).min_frames() == 3
    assert LabelSequence((0, 1, 0)).min_frames() == 3
    assert LabelSequence(()).min_frames() == 0


def test_label_sequence_rejects_out_of_vocab():
    with pytest.raises(InvalidInputError):
        LabelSequence((0, 2)).validate_against(VOCAB_AB)


def test_softmax_uniform_logits():
    d = softmax_rows(LogitLattice(np.zeros((3, 4))))
    assert np.allclose(d.probs, 0.25)
    assert np.allclose(d.log_probs, np.log(0.25))


def test_softmax_extreme_logits_stable():
    d = softmax_rows(LogitLattice(np.array([[1000.0, 0.0, -1000.0]])))
    assert np.all(np.isfinite(d.log_probs) | (d.probs == 0.0))
    assert d.probs[0, 0] == pytest.approx(1.0)
    assert abs(d.probs.sum() - 1.0) < 1e-12


@given(
    st.lists(
        st.lists(st.floats(-30, 30), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    )
)
def test_softmax_rows_sum_to_one(rows):
    d = softmax_rows(LogitLattice(np.array(rows)))
    assert np.allclose(d.probs.sum(axis=1), 1.0, atol=1e-12)
    # shift invariance: adding a row-constant leaves the distribution alone
    shifted = softmax_rows(LogitLattice(np.array(rows) + 5.0))
    assert np.allclose(shifted.probs, d.probs, atol=1e-12)


def test_collapse_examples():
    # merge repeats first, then drop blanks
    assert tuple(collapse((1, 1, 0, 2), VOCAB_AB)) == (0, 1)
    assert tuple(collapse((0, 0, 0), VOCAB_AB)) == ()
    assert tuple(collapse((1, 0, 1), VOCAB_AB)) == (0, 0)
    assert tuple(collapse((1, 1, 1), VOCAB_AB)) == (0,)


def test_collapse_rejects_bad_entries():
    with pytest.raises(InvalidInputError):
        collapse((3,), VOCAB_AB)


@given(st.lists(st.integers(0, 2), min_size=0, max_size=12))
def test_collapse_properties(path):
    y = collapse(path, VOCAB_AB)
    assert len(y) <= len(path)
    assert all(0 <= v < VOCAB_AB.size for v in y)
    # duplicating every frame never changes the collapsed sequence
    doubled = [v for v in path for _ in range(2)]
    assert tuple(collapse(doubled, VOCAB_AB)) == tuple(y)


def test_inverse_collapse_count_frozen_values():
    va = Vocabulary(("a",))
    # T=2, y="a": paths (a,blank), (blank,a), (a,a)
    assert inverse_collapse_count(2, LabelSequence((0,)), va) == 3
    # adjacent repeat needs a separating blank: impossible in 2 frames
    assert inverse_collapse_count(2, LabelSequence((0, 0)), va) == 0
    assert inverse_collapse_count(3, LabelSequence((0, 0)), va) == 1
    assert inverse_collapse_count(1, LabelSequence(()), va) == 1
    assert inverse_collapse_count(0, LabelSequence(()), va) == 1


def test_inverse_collapse_count_matches_brute_totals():
    # all paths of length T split across collapsed sequences
    va = Vocabulary(("a", "b", "c"))
    T = 4
    total = 0
    seen = set()
    import itertools

    for path in itertools.product(range(va.extended_size), repeat=T):
        seen.add(tuple(collapse(path, va)))
    for y in seen:
        total += inverse_collapse_count(T, LabelSequence(y), va)
    assert total == va.extended_size**T


def test_inverse_collapse_count_capacity_guard():
    with pytest.raises(CapacityError):
        inverse_collapse_count(9, LabelSequence((0,)), VOCAB_AB)
    with pytest.raises(CapacityError):
        inverse_collapse_count(2, LabelSequence((0,)), Vocabulary(("a", "b", "c", "d")))


def test_distribution_validation():
    with pytest.raises(InvalidInputError):
        DistributionLattice.from_probs(np.array([[0.6, 0.6]]))
    with pytest.raises(InvalidInputError):
        DistributionLattice.from_probs(np.array([[1.2, -0.2]]))


def test_one_hot_rows_are_legal():
    d = DistributionLattice.from_probs(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert d.probs[0, 0] == 1.0
    assert d.log_probs[0, 1] < -1e29


def test_immutability():
    d = random_distribution(RNG, 3, 3)
    with pytest.raises(ValueError):
        d.probs[0, 0] = 0.5
    lat = LogitLattice(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        lat.values[0, 0] = 1.0


def test_serialization_round_trip():
    d = random_distribution(RNG, 5, 4)
    text = format_lattice_text(d)
    header = text.splitlines()[0]
    assert header == "5 4"
    back = parse_lattice_text(text, normalize=False)
    assert np.array_equal(back.log_probs, d.log_probs)
    assert np.allclose(back.probs, d.probs, rtol=0, atol=1e-15)


def test_serialization_file_round_trip(tmp_path):
    d = random_distribution(RNG, 4, 3)
    path = tmp_path / "lat.txt"
    save_lattice_text(d, path)
    back = load_lattice_text(path, normalize=False)
    assert np.array_equal(back.log_probs, d.log_probs)


def test_parse_normalizes_sloppy_rows():
    text = "2 2\n-0.6931 -0.6931\n-0.1 -2.9\n"
    d = parse_lattice_text(text)
    assert np.allclose(d.probs.sum(axis=1), 1.0, atol=1e-12)
    assert d.probs[0, 0] == pytest.approx(0.5)


def test_parse_rejects_malformed():
    with pytest.raises(InvalidInputError):
        parse_lattice_text("2 2\n-0.7 -0.7\n")
    with pytest.raises(InvalidInputError):
        parse_lattice_text("1 2\n-0.7 -0.7 -0.7\n")
    with pytest.raises(InvalidInputError):
        parse_lattice_text("")
    with pytest.raises(InvalidInputError):
        parse_lattice_text("1 2\nx y\n")


def test_alignment_type():
    a = Alignment((0, 1, 1))
    assert len(a) == 3
    assert tuple(collapse(a, VOCAB_AB)) == (0,)
