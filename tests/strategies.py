"""Hypothesis strategies shared by the fuzz tests."""

from hypothesis import strategies as st

# Any JSON value: nulls, bools, unbounded ints, floats with nan and +-inf
# (which ``json`` writes as NaN/Infinity and reads back), short strings, and
# small lists and objects of them.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
