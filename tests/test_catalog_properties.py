"""The integer catalog against the exact representation oracle, over random
orientations of Dynkin trees."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdlab import IndecCatalog, euler_form, parse_quiver
from sdlab.quivers import Quiver
from sdlab.reps import (
    ar_translate,
    catalog_reps,
    exists_mono,
    ext1_dim,
    injective_rep,
    projective_rep,
)

# largest first: the first example hypothesis tries is then E6
SHAPES = ["E6"] + ["D%d" % n for n in range(7, 3, -1)] + ["A%d" % n for n in range(7, 1, -1)]


@st.composite
def orientations(draw):
    """A Dynkin tree from SHAPES with shuffled labels and random arrows."""
    edges = parse_quiver(draw(st.sampled_from(SHAPES))).undirected_edges()
    n = len(edges) + 1
    label = draw(st.permutations(range(1, n + 1)))
    flips = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    arrows = tuple(
        (label[v - 1], label[u - 1]) if flip else (label[u - 1], label[v - 1])
        for (u, v), flip in zip(edges, flips)
    )
    return Quiver(n, arrows)


@settings(derandomize=True, max_examples=10, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(orientations())
def test_catalog_matches_exact_oracle(q):
    cat = IndecCatalog(q)
    reps = catalog_reps(cat)
    size = cat.size()
    # dims, flags and tau links against reflection functors
    for i in range(1, q.n + 1):
        assert cat.entries[cat.proj_ids[i - 1]].dim_vector == projective_rep(q, i).dim_vector
        assert cat.entries[cat.inj_ids[i - 1]].dim_vector == injective_rep(q, i).dim_vector
    for a in range(size):
        assert reps[a].dim_vector == cat.entries[a].dim_vector
        for direction, links in (("forward", cat._tau), ("inverse", cat._tau_inv)):
            image = ar_translate(reps[a], direction)
            if links[a] is None:
                assert image is None
            else:
                assert image.dim_vector == cat.entries[links[a]].dim_vector
    # Euler-form tables and the monomorphism test on every pair
    for a in range(size):
        for b in range(size):
            ra, rb = reps[a], reps[b]
            # ext1_dim solves for the exact Hom once and subtracts chi
            ext = ext1_dim(ra, rb)
            assert cat.ext_dim(a, b) == ext
            assert cat.hom_dim(a, b) == ext + euler_form(q, ra.dim_vector, rb.dim_vector)
            assert cat.mono(a, b) == exists_mono(ra, rb)
