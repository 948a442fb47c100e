"""Shared hypothesis strategies and input enumerators for the test suite."""

from typing import Iterator

from hypothesis import strategies as st

from heckehom import Composition, LaurentPoly, Multiset, Partition, Tableau


def iter_compositions(n: int, length: int) -> Iterator[tuple[int, ...]]:
    """All length-tuples of nonnegative integers summing to n."""
    if length == 0:
        if n == 0:
            yield ()
        return
    if length == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in iter_compositions(n - first, length - 1):
            yield (first,) + rest


def laurent_polys(min_exp: int = -4, max_exp: int = 4,
                  max_coeff: int = 9) -> st.SearchStrategy[LaurentPoly]:
    coeff = st.integers(min_value=-max_coeff, max_value=max_coeff)
    return st.dictionaries(
        st.integers(min_value=min_exp, max_value=max_exp), coeff, max_size=6,
    ).map(lambda d: sum(
        (LaurentPoly.monomial(e, c) for e, c in d.items()),
        LaurentPoly.zero()))


def multisets(max_size: int = 6, max_value: int = 4,
              min_size: int = 0) -> st.SearchStrategy[Multiset]:
    return st.lists(
        st.integers(min_value=1, max_value=max_value),
        min_size=min_size, max_size=max_size,
    ).map(Multiset)


def compositions(max_n: int = 6, max_len: int = 4,
                 min_n: int = 0) -> st.SearchStrategy[Composition]:
    return st.lists(
        st.integers(min_value=0, max_value=max_n),
        min_size=0, max_size=max_len,
    ).filter(lambda parts: min_n <= sum(parts) <= max_n).map(Composition)


def partitions(max_n: int = 6, min_n: int = 1) -> st.SearchStrategy[Partition]:
    def build(parts: list[int]) -> Partition:
        return Partition(sorted(parts, reverse=True))
    return st.lists(
        st.integers(min_value=1, max_value=max_n), min_size=1, max_size=4,
    ).filter(lambda parts: min_n <= sum(parts) <= max_n).map(build)


@st.composite
def tableaux(draw, max_n: int = 6, max_value: int = 4,
             partition_shape: bool = True) -> Tableau:
    """Row-standard tableaux: any filling of a shape by values up to the cap."""
    shape = draw(partitions(max_n) if partition_shape
                 else compositions(max_n, min_n=1))
    rows = [draw(st.lists(st.integers(min_value=1, max_value=max_value),
                          min_size=part, max_size=part).map(Multiset))
            for part in shape.stripped]
    return Tableau(shape, rows)


@st.composite
def two_row_tableaux(draw, max_n: int = 16, max_value: int = 6) -> Tableau:
    """Two-row tableaux of partition shape up to degree max_n."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    top_len = draw(st.integers(min_value=(n + 1) // 2, max_value=n - 1))
    rows = [draw(st.lists(st.integers(min_value=1, max_value=max_value),
                          min_size=k, max_size=k))
            for k in (top_len, n - top_len)]
    return Tableau((top_len, n - top_len), rows)
