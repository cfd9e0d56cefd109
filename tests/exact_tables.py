"""Exact Hom and Ext^1 tables of a Dynkin quiver's catalog from the `reps`
oracle, solved once per quiver in a test session: the oracle tests of
`test_reps.py` and `test_stability.py` share them."""

import functools

from sdlab.catalog import catalog_for
from sdlab.quivers import euler_form
from sdlab.reps import catalog_reps, hom_dim


@functools.cache
def exact_hom_ext(q):
    """(hom, ext) rows by catalog id: one exact Hom solve per ordered pair,
    and Ext^1 off it as `reps.ext1_dim` reads it, hom - <dim M, dim N>,
    which must be >= 0."""
    reps = catalog_reps(catalog_for(q))
    hom = [[hom_dim(a, b) for b in reps] for a in reps]
    ext = [[hom[i][j] - euler_form(q, a.dim_vector, b.dim_vector) for j, b in enumerate(reps)]
           for i, a in enumerate(reps)]
    if min(map(min, ext)) < 0:
        raise AssertionError("negative Ext dimension; Euler form inconsistent")
    return hom, ext
