"""Helpers shared by the tests: a complex's sorted simplices of one
dimension, brute-force chain enumeration for the order complexes (reduced
nerves, barycentric subdivisions) that the package does not build, and the
check that a restricted chain complex is the one built from the
subcomplex."""

from nerveforge.homology import chain_complex, restricted_chain_complex, simplicial_chain_map
from nerveforge.simplicial import SimplicialMap


def simplices_of_dim(c, d):
    """The d-simplices of the complex ``c``, sorted."""
    return sorted(s for s in c.simplices if len(s) == d + 1)


def scanned_chains(elements):
    """Every strictly increasing chain of ``elements`` (vertex tuples) under
    inclusion, each stored sorted, extended by a scan of all elements."""
    chains = set()

    def grow(chain):
        chains.add(tuple(sorted(chain)))
        for s in elements:
            if set(chain[-1]) < set(s):
                grow(chain + [s])

    for s in elements:
        grow([s])
    return frozenset(chains)


def assert_restriction_matches(sub, c):
    """``restricted_chain_complex`` of ``chain_complex(c)`` to ``sub`` has the
    bases and boundary columns of ``chain_complex(sub)``, in the same order,
    and its chain map is the inclusion's."""
    cc = chain_complex(c)
    got, cm = restricted_chain_complex(cc, sub)
    ref = chain_complex(sub)
    assert list(got.basis.items()) == list(ref.basis.items())
    assert list(got.boundaries) == list(ref.boundaries)
    for d, cols in ref.boundaries.items():
        assert list(got.boundaries[d].items()) == list(cols.items())
    assert cm == simplicial_chain_map(SimplicialMap.inclusion(sub, c), ref, cc)
