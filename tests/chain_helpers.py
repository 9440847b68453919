"""Brute-force chain enumeration shared by the tests: the order complexes
(reduced nerves, barycentric subdivisions) that the package does not build."""


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
